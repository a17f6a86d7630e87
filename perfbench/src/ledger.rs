//! The per-layer ledger of a traced run: spans kept in memory and
//! written out when the run ends.
//!
//! Two kinds of span land here. The benchmark records its own around
//! every call it makes into a crate (`sweep`, `walker.drain`,
//! `pack.compress`, …). The spans the crates already emit (`cell`,
//! `load`, `fast_forward`, `warmup_tail`, `measure`, `io_read`,
//! `decode`) are imported from the telemetry layer's timeline after the
//! sweep and parented under the benchmark span that was open around
//! them. A layer's self time is its duration minus the part of it that
//! its children cover.

use std::sync::Mutex;
use std::time::Instant;

use trrip_obs::json::{self, Json};

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the ledger's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The sweep cell the span belongs to, if any.
    pub cell: Option<String>,
    /// The thread row the span ran on (0 = the benchmark's own).
    pub thread: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }
}

/// The span store.
#[derive(Debug)]
pub struct Ledger {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Ledger {
    pub fn new() -> Ledger {
        Ledger { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; returns its value and the
    /// span's index (for parenting later spans under it).
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        cell: Option<&str>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = {
            let mut spans = self.spans.lock().expect("ledger poisoned");
            spans.push(Span {
                name: name.to_owned(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                cell: cell.map(str::to_owned),
                thread: 0,
            });
            spans.len() - 1
        };
        let value = f();
        let end = self.now_ns();
        self.spans.lock().expect("ledger poisoned")[id].end_ns = end;
        (value, id)
    }

    /// Nanoseconds span `id` lasted.
    pub fn ns(&self, id: usize) -> f64 {
        let spans = self.spans.lock().expect("ledger poisoned");
        spans[id].end_ns.saturating_sub(spans[id].start_ns) as f64
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("ledger poisoned").clone()
    }

    /// Imports the crates' own spans from the telemetry layer's Chrome
    /// timeline (`trrip_obs::chrome_trace_json`), keeping those that
    /// start inside span `parent`. `anchor_us` is the timeline timestamp
    /// of the moment `anchor_ns` on this ledger's clock; see
    /// [`Ledger::anchor`]. Crate spans nest per thread; each becomes the
    /// child of the innermost imported span enclosing it on its thread,
    /// or of `parent`. Cells are numbered in start order and every span
    /// inside a cell carries its id. Returns how many spans were
    /// imported.
    pub fn import_timeline(&self, timeline: &str, anchor: (u64, u64), parent: usize) -> usize {
        let Ok(doc) = json::parse(timeline) else { return 0 };
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]);
        let (anchor_ns, anchor_us) = anchor;
        let to_ns = |us: u64| (anchor_ns + us * 1_000).saturating_sub(anchor_us * 1_000);
        let (lo, hi) = {
            let spans = self.spans.lock().expect("ledger poisoned");
            (spans[parent].start_ns, spans[parent].end_ns)
        };
        let mut imported: Vec<Span> = events
            .iter()
            .filter_map(|e| {
                let name = e.get("name")?.as_str()?;
                let start = to_ns(e.get("ts")?.as_u64()?);
                let dur = e.get("dur")?.as_u64()? * 1_000;
                let tid = e.get("tid")?.as_u64()?;
                (start >= lo.saturating_sub(1_000) && start <= hi && !name.starts_with("perfbench"))
                    .then(|| Span {
                        name: name.to_owned(),
                        start_ns: start,
                        end_ns: start + dur,
                        parent: Some(parent),
                        cell: None,
                        thread: tid,
                    })
            })
            .collect();
        // Parents before children: by thread, start, then longest first.
        let order = |a: &Span, b: &Span| {
            (a.thread, a.start_ns, std::cmp::Reverse(a.end_ns)).cmp(&(
                b.thread,
                b.start_ns,
                std::cmp::Reverse(b.end_ns),
            ))
        };
        imported.sort_by(order);
        if !imported.iter().any(|s| s.name == "cell") {
            imported.extend(walker_cells(&imported));
            imported.sort_by(order);
        }
        let mut cell_starts: Vec<u64> =
            imported.iter().filter(|s| s.name == "cell").map(|s| s.start_ns).collect();
        cell_starts.sort_unstable();

        let mut spans = self.spans.lock().expect("ledger poisoned");
        let base = spans.len();
        let mut open: Vec<usize> = Vec::new(); // stack of indices into `spans`
        let mut thread = u64::MAX;
        for mut span in imported {
            if span.thread != thread {
                open.clear();
                thread = span.thread;
            }
            while let Some(&top) = open.last() {
                // Timeline stamps are whole microseconds: allow a child
                // to overhang its parent's truncated end by two.
                if spans[top].end_ns + 2_000 >= span.end_ns && spans[top].start_ns <= span.start_ns
                {
                    break;
                }
                open.pop();
            }
            if let Some(&top) = open.last() {
                span.parent = Some(top);
                span.cell = spans[top].cell.clone();
            }
            if span.name == "cell" {
                let k = cell_starts.partition_point(|&s| s < span.start_ns);
                span.cell = Some(format!("c{k}"));
            }
            spans.push(span);
            open.push(spans.len() - 1);
        }
        spans.len() - base
    }

    /// Pins the telemetry timeline to this ledger's clock: opens and
    /// closes one crate span and returns `(ledger ns, timeline µs)` of
    /// its start.
    pub fn anchor(&self) -> (u64, u64) {
        let ns = self.now_ns();
        drop(trrip_obs::enter("perfbench.anchor"));
        let timeline = trrip_obs::chrome_trace_json();
        let us = json::parse(&timeline)
            .ok()
            .and_then(|doc| {
                doc.get("traceEvents")?.as_arr()?.iter().rev().find_map(|e| {
                    (e.get("name")?.as_str()? == "perfbench.anchor")
                        .then(|| e.get("ts")?.as_u64())?
                })
            })
            .unwrap_or(0);
        (ns, us)
    }

    /// Summed self time per span name, in seconds: each span's duration
    /// minus the union of its children's intervals.
    pub fn self_seconds(&self) -> Vec<(String, f64)> {
        let spans = self.spans();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut totals: Vec<(String, f64)> = Vec::new();
        for (i, s) in spans.iter().enumerate() {
            let mut intervals: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| (spans[c].start_ns.max(s.start_ns), spans[c].end_ns.min(s.end_ns)))
                .filter(|(a, b)| b > a)
                .collect();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (a, b) in intervals {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                }
                reach = reach.max(b);
            }
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered) as f64 / 1e9;
            match totals.iter_mut().find(|(n, _)| *n == s.name) {
                Some(t) => t.1 += own,
                None => totals.push((s.name.clone(), own)),
            }
        }
        totals
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            out.push_str(&format!("{{\"id\":{i},\"name\":"));
            json::write_str(&mut out, &s.name);
            out.push_str(&format!(
                ",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.start_ns, s.end_ns
            ));
            match s.parent {
                Some(p) => out.push_str(&p.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"cell\":");
            match &s.cell {
                Some(c) => json::write_str(&mut out, c),
                None => out.push_str("null"),
            }
            out.push_str(&format!(",\"thread\":{}}}\n", s.thread));
        }
        out
    }
}

/// Cells of an engine that emits no `cell` span (the in-memory walker
/// sweep runs `simulate` per cell): on each thread, a cell starts at a
/// `load` span and runs to the end of the last span before the next
/// `load`. `spans` must be sorted by thread, then start.
fn walker_cells(spans: &[Span]) -> Vec<Span> {
    let mut cells: Vec<Span> = Vec::new();
    for span in spans {
        let extends = cells.last().is_some_and(|c| c.thread == span.thread);
        if span.name == "load" || !extends {
            if span.name != "load" {
                continue; // spans before a thread's first load belong to no cell
            }
            cells.push(Span { name: "cell".to_owned(), end_ns: span.end_ns, ..span.clone() });
        } else if let Some(cell) = cells.last_mut() {
            cell.end_ns = cell.end_ns.max(span.end_ns);
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name: name.to_owned(), start_ns: start, end_ns: end, parent, cell: None, thread: 1 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let ledger = Ledger::new();
        {
            let mut spans = ledger.spans.lock().unwrap();
            spans.push(span("sweep", 0, 1_000_000_000, None));
            // Two overlapping cells cover 0.1..0.7 s of the sweep.
            spans.push(span("cell", 100_000_000, 500_000_000, Some(0)));
            spans.push(span("cell", 300_000_000, 700_000_000, Some(0)));
            spans.push(span("measure", 100_000_000, 400_000_000, Some(1)));
        }
        let totals = ledger.self_seconds();
        let get = |n: &str| totals.iter().find(|(k, _)| k == n).map(|t| t.1).unwrap();
        assert!((get("sweep") - 0.4).abs() < 1e-9);
        assert!((get("cell") - (0.1 + 0.4)).abs() < 1e-9);
        assert!((get("measure") - 0.3).abs() < 1e-9);
    }

    #[test]
    fn imported_spans_nest_per_thread_and_carry_their_cell() {
        let ledger = Ledger::new();
        let ((), sweep) = ledger.time("sweep", None, None, || {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let start = ledger.spans()[sweep].start_ns / 1_000;
        let timeline = format!(
            "{{\"traceEvents\":[\
             {{\"name\":\"cell\",\"ph\":\"X\",\"ts\":{a},\"dur\":3000,\"tid\":2}},\
             {{\"name\":\"measure\",\"ph\":\"X\",\"ts\":{b},\"dur\":1000,\"tid\":2}},\
             {{\"name\":\"decode\",\"ph\":\"X\",\"ts\":{b},\"dur\":500,\"tid\":3}}]}}",
            a = start + 100,
            b = start + 1_000,
        );
        assert_eq!(ledger.import_timeline(&timeline, (0, 0), sweep), 3);
        let spans = ledger.spans();
        let find = |n: &str| spans.iter().position(|s| s.name == n).unwrap();
        assert_eq!(spans[find("cell")].parent, Some(sweep));
        assert_eq!(spans[find("measure")].parent, Some(find("cell")));
        assert_eq!(spans[find("measure")].cell.as_deref(), Some("c0"));
        assert_eq!(spans[find("decode")].parent, Some(sweep));
        assert_eq!(ledger.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn walker_cells_run_from_each_load_to_the_next() {
        let mut spans = vec![
            span("load", 0, 10, None),
            span("fast_forward", 10, 50, None),
            span("measure", 50, 90, None),
            span("load", 100, 105, None),
            span("measure", 105, 200, None),
        ];
        spans.push(Span { thread: 2, ..span("measure", 0, 40, None) });
        let cells = walker_cells(&spans);
        let bounds: Vec<(u64, u64)> = cells.iter().map(|c| (c.start_ns, c.end_ns)).collect();
        assert_eq!(bounds, [(0, 90), (100, 200)]);
        assert!(cells.iter().all(|c| c.name == "cell" && c.thread == 1));
    }
}
