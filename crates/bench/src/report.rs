//! Report generation: turns the JSON artifacts under `results/` into a
//! Markdown summary (series endpoints, table rows), so EXPERIMENTS.md can
//! be cross-checked against the latest run mechanically.

use cras_sim::json::Json as Value;

/// Summarizes one figure JSON: first/last point of every series.
pub(crate) fn summarize_figure(json: &Value) -> Option<String> {
    let id = json.get("id")?.as_str()?;
    let title = json.get("title")?.as_str()?;
    let series = json.get("series")?.as_array()?;
    let mut out = format!("### {id} — {title}\n\n| series | first (x, y) | last (x, y) | max y |\n|---|---|---|---|\n");
    for s in series {
        let name = s.get("name")?.as_str()?;
        let points = s.get("points")?.as_array()?;
        let fmt = |p: &Value| -> Option<String> {
            let x = p.at(0)?.as_f64()?;
            let y = p.at(1)?.as_f64()?;
            Some(format!("({x:.2}, {y:.4})"))
        };
        let first = points.first().and_then(fmt).unwrap_or_default();
        let last = points.last().and_then(fmt).unwrap_or_default();
        let max_y = points
            .iter()
            .filter_map(|p| p.at(1)?.as_f64())
            .fold(f64::NEG_INFINITY, f64::max);
        out.push_str(&format!("| {name} | {first} | {last} | {max_y:.4} |\n"));
    }
    Some(out)
}

/// Summarizes one key/value table JSON.
pub(crate) fn summarize_table(json: &Value) -> Option<String> {
    let id = json.get("id")?.as_str()?;
    let title = json.get("title")?.as_str()?;
    let rows = json.get("rows")?.as_array()?;
    let mut out = format!("### {id} — {title}\n\n| parameter | value | unit |\n|---|---|---|\n");
    for r in rows {
        let arr = r.as_array()?;
        let name = arr.first()?.as_str()?;
        let value = arr.get(1).and_then(Value::as_str)?;
        let unit = arr.get(2).and_then(Value::as_str)?;
        out.push_str(&format!("| {name} | {value} | {unit} |\n"));
    }
    Some(out)
}

/// Summarizes any artifact (figure or table).
pub fn summarize(json: &Value) -> Option<String> {
    if json.get("series").is_some() {
        summarize_figure(json)
    } else if json.get("rows").is_some() {
        summarize_table(json)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cras_sim::json::parse;

    #[test]
    fn figure_summary_extracts_endpoints() {
        let fig = parse(
            r#"{
            "id": "fig6",
            "title": "Throughput",
            "xlabel": "streams",
            "ylabel": "bytes/s",
            "series": [
                {"name": "CRAS", "points": [[1.0, 0.19], [25.0, 4.62]]},
                {"name": "UFS", "points": [[1.0, 0.18], [25.0, 1.95]]}
            ]
        }"#,
        )
        .unwrap();
        let s = summarize(&fig).unwrap();
        assert!(s.contains("fig6"));
        assert!(s.contains("(25.00, 4.6200)"));
        assert!(s.contains("| UFS |"));
    }

    #[test]
    fn table_summary_lists_rows() {
        let t = parse(
            r#"{
            "id": "table4",
            "title": "Disk parameters",
            "rows": [["D", "6.10", "MB/s"], ["T_rot", "8.33", "ms"]]
        }"#,
        )
        .unwrap();
        let s = summarize(&t).unwrap();
        assert!(s.contains("table4"));
        assert!(s.contains("| D | 6.10 | MB/s |"));
    }

    #[test]
    fn unknown_shape_rejected() {
        assert!(summarize(&parse(r#"{"foo": 1}"#).unwrap()).is_none());
    }
}
