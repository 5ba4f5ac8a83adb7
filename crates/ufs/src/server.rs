//! The Unix-server request path: a single served queue with head-of-line
//! blocking.
//!
//! Real-Time Mach runs Unix as a user-level server (Lites). A file-system
//! call is a message to that server; while the server synchronously waits
//! on disk I/O for one request, every later request — regardless of its
//! issuer's priority — waits behind it. That *priority inversion* is the
//! paper's explanation for UFS's collapse under background load
//! (Figure 6: "it cannot support even one stream when other disk I/O
//! traffic is present").
//!
//! [`UnixServer`] is the queue/state machine; the orchestrator charges CPU
//! time and performs the disk fetches it asks for.

use std::collections::VecDeque;

use crate::fs::FetchRun;

/// One file-system request from a client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FsReq<T> {
    /// Caller routing tag.
    pub tag: T,
    /// Clustered runs that must be fetched synchronously, in order.
    pub fetch: Vec<FetchRun>,
    /// Read-ahead runs to issue asynchronously after completion.
    pub read_ahead: Vec<FetchRun>,
}

/// What the orchestrator must do next.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step<T> {
    /// Fetch this run from disk (normal class, one command), then call
    /// [`UnixServer::fetch_done`].
    Fetch(FetchRun),
    /// The current request is complete: deliver to the client, issue its
    /// read-ahead, then call [`UnixServer::next_request`].
    Done(FsReq<T>),
}

struct Current<T> {
    req: FsReq<T>,
    next: usize,
}

/// The serialized Unix server.
pub struct UnixServer<T> {
    queue: VecDeque<FsReq<T>>,
    current: Option<Current<T>>,
    served: u64,
    max_queue: usize,
}

impl<T> Default for UnixServer<T> {
    fn default() -> Self {
        UnixServer::new()
    }
}

impl<T> UnixServer<T> {
    /// Creates an idle server.
    pub fn new() -> UnixServer<T> {
        UnixServer {
            queue: VecDeque::new(),
            current: None,
            served: 0,
            max_queue: 0,
        }
    }

    /// The routing tag of the request in service, if any (the
    /// orchestrator uses it to route the in-flight fetch's completion,
    /// e.g. to the volume the request is reading).
    pub fn current_tag(&self) -> Option<&T> {
        self.current.as_ref().map(|c| &c.req.tag)
    }

    /// Submits a request. If the server is idle it starts immediately and
    /// the first step is returned; otherwise the request queues FIFO.
    pub fn submit(&mut self, req: FsReq<T>) -> Option<Step<T>> {
        if self.current.is_some() {
            self.queue.push_back(req);
            self.max_queue = self.max_queue.max(self.queue.len());
            None
        } else {
            Some(self.start(req))
        }
    }

    fn start(&mut self, req: FsReq<T>) -> Step<T> {
        debug_assert!(self.current.is_none());
        if req.fetch.is_empty() {
            self.served += 1;
            return Step::Done(req);
        }
        let first = req.fetch[0];
        self.current = Some(Current { req, next: 1 });
        Step::Fetch(first)
    }

    /// Reports the in-flight fetch as complete; returns the next step.
    ///
    /// # Panics
    ///
    /// Panics if no request is in service.
    pub fn fetch_done(&mut self) -> Step<T> {
        let cur = self.current.as_mut().expect("fetch_done while idle");
        if cur.next < cur.req.fetch.len() {
            let b = cur.req.fetch[cur.next];
            cur.next += 1;
            Step::Fetch(b)
        } else {
            let cur = self.current.take().expect("checked above");
            self.served += 1;
            Step::Done(cur.req)
        }
    }

    /// After a [`Step::Done`], pulls the next queued request (if any) and
    /// returns its first step.
    pub fn next_request(&mut self) -> Option<Step<T>> {
        if self.current.is_some() {
            return None;
        }
        let req = self.queue.pop_front()?;
        Some(self.start(req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(start: u64) -> FetchRun {
        FetchRun { start, len: 1 }
    }

    fn req(tag: u32, fetch: Vec<u64>) -> FsReq<u32> {
        FsReq {
            tag,
            fetch: fetch.into_iter().map(run).collect(),
            read_ahead: Vec::new(),
        }
    }

    #[test]
    fn cached_request_completes_immediately() {
        let mut s = UnixServer::new();
        match s.submit(req(1, vec![])) {
            Some(Step::Done(r)) => assert_eq!(r.tag, 1),
            other => panic!("expected Done, got {other:?}"),
        }
        assert!(s.current.is_none());
        assert_eq!(s.served, 1);
    }

    #[test]
    fn fetches_run_in_order() {
        let mut s = UnixServer::new();
        let step = s.submit(req(1, vec![10, 11, 12])).unwrap();
        assert_eq!(step, Step::Fetch(run(10)));
        assert_eq!(s.fetch_done(), Step::Fetch(run(11)));
        assert_eq!(s.fetch_done(), Step::Fetch(run(12)));
        match s.fetch_done() {
            Step::Done(r) => assert_eq!(r.tag, 1),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn later_requests_wait_behind_current() {
        let mut s = UnixServer::new();
        let step = s.submit(req(1, vec![10])).unwrap();
        assert_eq!(step, Step::Fetch(run(10)));
        // High-priority caller's request still queues FIFO.
        assert!(s.submit(req(2, vec![20])).is_none());
        assert!(s.submit(req(3, vec![])).is_none());
        assert_eq!(s.queue.len(), 2);
        match s.fetch_done() {
            Step::Done(r) => assert_eq!(r.tag, 1),
            other => panic!("unexpected {other:?}"),
        }
        // Next request starts only when asked.
        let step = s.next_request().unwrap();
        assert_eq!(step, Step::Fetch(run(20)));
        match s.fetch_done() {
            Step::Done(r) => assert_eq!(r.tag, 2),
            other => panic!("unexpected {other:?}"),
        }
        // Cached request 3 completes instantly when reached.
        match s.next_request().unwrap() {
            Step::Done(r) => assert_eq!(r.tag, 3),
            other => panic!("unexpected {other:?}"),
        }
        assert!(s.next_request().is_none());
        assert_eq!(s.served, 3);
    }

    #[test]
    fn current_tag_names_request_in_service() {
        let mut s = UnixServer::new();
        assert_eq!(s.current_tag(), None);
        s.submit(req(7, vec![10]));
        s.submit(req(8, vec![20]));
        assert_eq!(s.current_tag(), Some(&7));
        s.fetch_done();
        s.next_request();
        assert_eq!(s.current_tag(), Some(&8));
    }

    #[test]
    fn next_request_while_busy_is_none() {
        let mut s = UnixServer::new();
        s.submit(req(1, vec![10]));
        s.submit(req(2, vec![20]));
        assert!(s.next_request().is_none());
    }

    #[test]
    fn max_queue_tracks_depth() {
        let mut s = UnixServer::new();
        s.submit(req(1, vec![10]));
        for i in 2..=5 {
            s.submit(req(i, vec![i as u64 * 10]));
        }
        assert_eq!(s.max_queue, 4);
    }

    #[test]
    #[should_panic(expected = "while idle")]
    fn fetch_done_while_idle_panics() {
        let mut s: UnixServer<u32> = UnixServer::new();
        s.fetch_done();
    }
}
