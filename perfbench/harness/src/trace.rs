//! In-memory span recorder: name, start, end, parent, and the id of
//! the request a span belongs to. Spans are written out once, when
//! the run ends.

use std::cell::RefCell;
use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer started.
#[derive(Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    on: bool,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on: true,
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Turns span recording on or off; `span` still returns durations.
    pub fn set_recording(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `op` inside a span and returns its result and wall seconds.
    pub fn span<R>(&self, name: &'static str, request: u64, op: impl FnOnce() -> R) -> (R, f64) {
        if !self.on {
            let t0 = Instant::now();
            let out = op();
            return (out, t0.elapsed().as_secs_f64());
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.stack.borrow().last().copied();
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns: 0,
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(id);
        let t0 = Instant::now();
        let out = op();
        let t1 = Instant::now();
        self.stack.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        spans[id].start_ns = t0.duration_since(self.epoch).as_nanos() as u64;
        spans[id].end_ns = t1.duration_since(self.epoch).as_nanos() as u64;
        (out, (t1 - t0).as_secs_f64())
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::Value::Array(
            self.spans
                .borrow()
                .iter()
                .map(|s| {
                    serde_json::json!({
                        "id": s.id,
                        "parent": s.parent,
                        "request": s.request,
                        "name": s.name,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                    })
                })
                .collect(),
        )
    }
}
