//! Common result containers for the experiments, serializable so the
//! harness can emit JSON next to the printed tables.

use cras_sim::json::Json;
use std::collections::BTreeMap;

/// One named series of `(x, y)` points.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub(crate) fn new(name: &str) -> Series {
        Series {
            name: name.to_string(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub(crate) fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Maximum y value (0 when empty).
    #[cfg(test)]
    pub(crate) fn max_y(&self) -> f64 {
        self.points.iter().map(|p| p.1).fold(0.0, f64::max)
    }

    /// Final y value, if any.
    pub fn last_y(&self) -> Option<f64> {
        self.points.last().map(|p| p.1)
    }
}

impl Series {
    fn to_value(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("name".to_string(), Json::Str(self.name.clone()));
        m.insert(
            "points".to_string(),
            Json::Arr(
                self.points
                    .iter()
                    .map(|&(x, y)| Json::Arr(vec![Json::Num(x), Json::Num(y)]))
                    .collect(),
            ),
        );
        Json::Obj(m)
    }
}

/// A figure: several series over shared axes.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Figure id, e.g. `"fig6"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// X-axis label.
    pub xlabel: String,
    /// Y-axis label.
    pub ylabel: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Figure {
    /// Creates an empty figure.
    pub(crate) fn new(id: &str, title: &str, xlabel: &str, ylabel: &str) -> Figure {
        Figure {
            id: id.to_string(),
            title: title.to_string(),
            xlabel: xlabel.to_string(),
            ylabel: ylabel.to_string(),
            series: Vec::new(),
        }
    }

    /// Looks a series up by name, creating it if missing.
    pub(crate) fn series_mut(&mut self, name: &str) -> &mut Series {
        if let Some(pos) = self.series.iter().position(|s| s.name == name) {
            return &mut self.series[pos];
        }
        self.series.push(Series::new(name));
        self.series.last_mut().expect("just pushed")
    }

    /// Renders the figure as aligned text: one row per x, one column per
    /// series (the format the bench binaries print).
    pub fn render(&self) -> String {
        use cras_sim::table::Table;
        let mut headers: Vec<&str> = vec![self.xlabel.as_str()];
        headers.extend(self.series.iter().map(|s| s.name.as_str()));
        let mut t = Table::new(&headers);
        // Collect the union of x values in order of first appearance.
        let mut xs: Vec<f64> = Vec::new();
        for s in &self.series {
            for &(x, _) in &s.points {
                if !xs.iter().any(|&v| (v - x).abs() < 1e-12) {
                    xs.push(x);
                }
            }
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN x"));
        for x in xs {
            let mut row = vec![format!("{x:.3}")];
            for s in &self.series {
                let y = s
                    .points
                    .iter()
                    .find(|p| (p.0 - x).abs() < 1e-12)
                    .map(|p| format!("{:.6}", p.1))
                    .unwrap_or_default();
                row.push(y);
            }
            t.row_owned(row);
        }
        format!(
            "# {} — {}\n# y: {}\n{}",
            self.id,
            self.title,
            self.ylabel,
            t.render()
        )
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        let mut m = BTreeMap::new();
        m.insert("id".to_string(), Json::Str(self.id.clone()));
        m.insert("title".to_string(), Json::Str(self.title.clone()));
        m.insert("xlabel".to_string(), Json::Str(self.xlabel.clone()));
        m.insert("ylabel".to_string(), Json::Str(self.ylabel.clone()));
        m.insert(
            "series".to_string(),
            Json::Arr(self.series.iter().map(Series::to_value).collect()),
        );
        Json::Obj(m).pretty()
    }
}

/// A generic key/value result table (Table 3/4 style).
#[derive(Clone, Debug)]
pub struct KvTable {
    /// Table id.
    pub id: String,
    /// Human title.
    pub title: String,
    /// `(name, value, unit)` rows.
    pub rows: Vec<(String, String, String)>,
}

impl KvTable {
    /// Creates an empty table.
    pub(crate) fn new(id: &str, title: &str) -> KvTable {
        KvTable {
            id: id.to_string(),
            title: title.to_string(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub(crate) fn row(&mut self, name: &str, value: String, unit: &str) {
        self.rows.push((name.to_string(), value, unit.to_string()));
    }

    /// Renders as aligned text.
    pub fn render(&self) -> String {
        use cras_sim::table::Table;
        let mut t = Table::new(&["parameter", "value", "unit"]);
        for (n, v, u) in &self.rows {
            t.row(&[n, v, u]);
        }
        format!("# {} — {}\n{}", self.id, self.title, t.render())
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> String {
        let mut m = BTreeMap::new();
        m.insert("id".to_string(), Json::Str(self.id.clone()));
        m.insert("title".to_string(), Json::Str(self.title.clone()));
        m.insert(
            "rows".to_string(),
            Json::Arr(
                self.rows
                    .iter()
                    .map(|(n, v, u)| {
                        Json::Arr(vec![
                            Json::Str(n.clone()),
                            Json::Str(v.clone()),
                            Json::Str(u.clone()),
                        ])
                    })
                    .collect(),
            ),
        );
        Json::Obj(m).pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_render_has_all_series() {
        let mut f = Figure::new("figX", "test", "n", "MB/s");
        f.series_mut("a").push(1.0, 2.0);
        f.series_mut("b").push(1.0, 3.0);
        f.series_mut("a").push(2.0, 4.0);
        let txt = f.render();
        assert!(txt.contains("figX"));
        assert!(txt.contains('a') && txt.contains('b'));
        assert_eq!(f.series.len(), 2);
        assert_eq!(f.series[0].points.len(), 2);
    }

    #[test]
    fn series_mut_is_idempotent() {
        let mut f = Figure::new("f", "t", "x", "y");
        f.series_mut("s").push(1.0, 1.0);
        f.series_mut("s").push(2.0, 2.0);
        assert_eq!(f.series.len(), 1);
        assert_eq!(f.series[0].max_y(), 2.0);
        assert_eq!(f.series[0].last_y(), Some(2.0));
    }

    #[test]
    fn json_roundtrip_shape() {
        let mut f = Figure::new("f", "t", "x", "y");
        f.series_mut("s").push(1.0, 1.5);
        let j = f.to_json();
        assert!(j.contains("\"points\""));
        let v = cras_sim::json::parse(&j).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("f"));
    }

    #[test]
    fn kv_table_renders() {
        let mut t = KvTable::new("table4", "Disk parameters");
        t.row("D", "6.5".into(), "MB/s");
        let txt = t.render();
        assert!(txt.contains("6.5"));
        assert!(txt.contains("MB/s"));
    }
}
