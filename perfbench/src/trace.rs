//! In-memory spans recorded by the benchmark around its own calls into
//! each layer of the program. The program itself carries no spans for
//! this: everything here lives on the benchmark's side of the public API.
//!
//! Recording is per thread. A thread records only between [`start`] and
//! [`finish`]; elsewhere [`span`] returns an inert guard, so the untraced
//! runs pay nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `gp.refit`.
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Nanoseconds covered by direct children.
    pub child_ns: u64,
}

impl Span {
    /// Wall nanoseconds of the span.
    pub fn busy_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Busy time not covered by child spans.
    pub fn self_ns(&self) -> u64 {
        self.busy_ns().saturating_sub(self.child_ns)
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on the calling thread, discarding earlier spans.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
        });
    });
}

/// Stops recording on the calling thread and returns its spans.
///
/// # Panics
///
/// Panics if a span is still open: guards must drop before the
/// recording ends.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| match r.borrow_mut().take() {
        Some(rec) => {
            assert!(
                rec.open.is_empty(),
                "trace finished with {} open spans",
                rec.open.len()
            );
            rec.spans
        }
        None => Vec::new(),
    })
}

/// Closes its span when dropped.
#[must_use = "a span closes when its guard drops"]
pub struct Guard(Option<usize>);

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    Guard(RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let now = rec.origin.elapsed().as_nanos() as u64;
        let idx = rec.spans.len();
        rec.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: rec.open.last().copied(),
            child_ns: 0,
        });
        rec.open.push(idx);
        Some(idx)
    }))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let Some(rec) = r.as_mut() else { return };
            let now = rec.origin.elapsed().as_nanos() as u64;
            // Guards are scoped, so they close innermost first.
            if rec.open.pop() != Some(idx) {
                return;
            }
            rec.spans[idx].end_ns = now;
            let busy = rec.spans[idx].busy_ns();
            if let Some(p) = rec.spans[idx].parent {
                rec.spans[p].child_ns += busy;
            }
        });
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct LayerStats {
    /// Spans of this name.
    pub count: u64,
    /// Summed wall time, nanoseconds.
    pub busy_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Each span's wall time, milliseconds.
    pub busy_ms: Vec<f64>,
    /// Each span's self time, milliseconds.
    pub self_ms: Vec<f64>,
}

/// Aggregates spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerStats> {
    let mut out: BTreeMap<&'static str, LayerStats> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.busy_ns += s.busy_ns();
        e.self_ns += s.self_ns();
        e.busy_ms.push(s.busy_ns() as f64 / 1e6);
        e.self_ms.push(s.self_ns() as f64 / 1e6);
    }
    out
}

/// Nanoseconds one recorded span costs, measured on a scratch thread.
pub fn cost_per_span_ns() -> f64 {
    const N: u32 = 100_000;
    std::thread::spawn(|| {
        start();
        let t = Instant::now();
        for _ in 0..N {
            let _s = span("calibrate");
        }
        let ns = t.elapsed().as_nanos() as f64 / f64::from(N);
        drop(finish());
        ns
    })
    .join()
    .unwrap_or(f64::NAN)
}

/// Checks that every child lies inside its parent and that no span
/// ended before it started.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if s.child_ns > s.busy_ns() {
            return Err(format!(
                "span {i} ({}) has children longer than itself",
                s.name
            ));
        }
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                return Err(format!(
                    "span {i} ({}) escapes its parent {}",
                    s.name, parent.name
                ));
            }
        }
    }
    Ok(())
}

/// Writes spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`).
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        start();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let spans = finish();
        assert_eq!(spans.len(), 2);
        check_nesting(&spans).expect("nested");
        let outer = spans[0];
        assert_eq!(outer.child_ns, spans[1].busy_ns());
        assert_eq!(outer.self_ns() + spans[1].busy_ns(), outer.busy_ns());
    }

    #[test]
    fn spans_outside_a_recording_are_inert() {
        let _g = span("nothing");
        assert!(finish().is_empty());
    }
}
