//! Timing from outside the program: every call into a workspace crate is
//! wrapped in [`Recorder::open`]/[`Recorder::close`]. With tracing on,
//! each call also leaves a span (name, start, end, parent) in memory; the
//! spans are written out once, when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    detail: &'static str,
    start_s: f64,
    end_s: f64,
    parent: Option<usize>,
}

/// An open timing interval; closing it yields its duration.
#[derive(Debug)]
#[must_use = "an open interval measures nothing until it is closed"]
pub struct Open {
    start: Instant,
    span: Option<usize>,
}

/// Times calls and, while enabled, records them as spans.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that starts with span recording on or off.
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns span recording on or off for the calls opened from now on.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Starts timing a call named `name` (`detail` tells instances apart,
    /// e.g. the kernel). The innermost open span becomes its parent.
    pub fn open(&mut self, name: &'static str, detail: &'static str) -> Open {
        let span = self.enabled.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                name,
                detail,
                start_s: self.origin.elapsed().as_secs_f64(),
                end_s: f64::NAN,
                parent: self.stack.last().copied(),
            });
            self.stack.push(id);
            id
        });
        Open {
            start: Instant::now(),
            span,
        }
    }

    /// Ends the interval and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let secs = open.start.elapsed().as_secs_f64();
        if let Some(id) = open.span {
            self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
        secs
    }

    /// Times `f` as one call with no nested spans.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(name, "");
        let r = f();
        (r, self.close(open))
    }

    /// The recorded spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut s = String::from("[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"detail\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                sp.name, sp.detail, sp.start_s, sp.end_s
            );
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push(']');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_stay_off_when_disabled() {
        let mut rec = Recorder::new(true);
        let outer = rec.open("pass", "");
        let (_, inner) = rec.time("call", || ());
        let total = rec.close(outer);
        assert!(total >= inner);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        rec.set_enabled(false);
        let _ = rec.time("untraced", || ());
        assert_eq!(rec.spans.len(), 2);
        assert!(rec.to_json().contains("\"parent\":0"));
    }
}
