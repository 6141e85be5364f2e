//! In-memory spans recorded from outside the program: one around each
//! top-level call a workload makes, one per pipeline stage event the
//! pipeline's observer reports, and one per client request. Spans are kept
//! in memory and written out only when the run ends.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use glaive::telemetry::{Observer, Stage};

/// One timed interval, in microseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Client request id, for request spans.
    pub request: Option<u64>,
}

/// A thread-safe span sink. Also a pipeline [`Observer`]: stage events
/// become child spans of the recorder's current top-level span.
pub struct Recorder {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    open: Mutex<HashMap<(Stage, String), u64>>,
    current: Mutex<Option<usize>>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Mutex::new(Vec::new()),
            open: Mutex::new(HashMap::new()),
            current: Mutex::new(None),
        }
    }

    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Records a finished interval and returns its index.
    pub fn record(
        &self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(Span {
            name: name.into(),
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Times `f` as a top-level span; stage events reported meanwhile nest
    /// under it.
    pub fn top<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let index = self.record(name, start, start, None, None);
        *self.current.lock().expect("current lock") = Some(index);
        let out = f();
        let end = Instant::now();
        *self.current.lock().expect("current lock") = None;
        self.spans.lock().expect("span lock")[index].end_us = self.us(end);
        (out, end - start)
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock"))
    }
}

impl Observer for Recorder {
    fn stage_started(&self, stage: Stage, subject: &str) {
        let now = self.us(Instant::now());
        self.open
            .lock()
            .expect("open lock")
            .insert((stage, subject.to_string()), now);
    }

    fn stage_finished(&self, stage: Stage, subject: &str, _elapsed: Duration, _items: u64) {
        let end_us = self.us(Instant::now());
        let Some(start_us) = self
            .open
            .lock()
            .expect("open lock")
            .remove(&(stage, subject.to_string()))
        else {
            return;
        };
        let parent = *self.current.lock().expect("current lock");
        self.spans.lock().expect("span lock").push(Span {
            name: format!("{}:{subject}", stage.name()),
            start_us,
            end_us,
            parent,
            request: None,
        });
    }
}

/// Renders spans as a JSON array (one object per line).
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"start_us\": {}, \"end_us\": {}, \"parent\": {}, \"request\": {}}}",
                json_str(&s.name),
                s.start_us,
                s.end_us,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request.map_or("null".to_string(), |r| r.to_string()),
            )
        })
        .collect();
    format!("[\n    {}\n  ]", rows.join(",\n    "))
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
