//! Clocks, resource usage, order statistics and the span recorder.

use std::os::raw::{c_int, c_long};
use std::time::{Duration, Instant};

#[repr(C)]
struct TimeVal {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen
/// longs of which only `ru_maxrss` (kilobytes) is read here.
#[repr(C)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
    /// glibc: returns freed heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const RUSAGE_CHILDREN: c_int = -1;

fn rusage(who: c_int) -> RUsage {
    let mut usage = RUsage {
        utime: TimeVal { sec: 0, usec: 0 },
        stime: TimeVal { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout, and `who` is one of the two constants getrusage accepts.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage
}

fn cpu_of(u: &RUsage) -> f64 {
    let secs = |t: &TimeVal| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&u.utime) + secs(&u.stime)
}

/// User plus system CPU seconds of this process and its waited-for
/// children (the service's worker processes) so far.
pub fn cpu_total() -> f64 {
    cpu_of(&rusage(RUSAGE_SELF)) + cpu_of(&rusage(RUSAGE_CHILDREN))
}

/// CPU seconds of waited-for children only.
pub fn cpu_children() -> f64 {
    cpu_of(&rusage(RUSAGE_CHILDREN))
}

/// Peak resident set of the largest waited-for child, in MiB. Linux
/// carries a process's pre-`exec` high-water mark into `ru_maxrss`, so
/// this is at least this process's RSS when it spawned the child.
pub fn children_peak_rss_mb() -> f64 {
    rusage(RUSAGE_CHILDREN).maxrss as f64 / 1024.0
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process since it started or since the
/// last reset in [`sample`], in MiB (`VmHWM`; unlike `ru_maxrss` it
/// excludes the spawning parent's image).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set of this process, in MiB (`VmRSS`).
fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`; 0 for none.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Times the set-up a user pays before the first step. One set-up takes
/// well under a millisecond, so set-ups are timed in batches that each
/// last at least `BATCH`. After `WARMUP` discarded batches (the first
/// ones run on cold caches), batches run at the start and again between
/// measured calls, so the median covers the whole run.
pub struct SetupTimer<F: FnMut()> {
    setup: F,
    per_batch: usize,
    samples: Vec<f64>,
}

impl<F: FnMut()> SetupTimer<F> {
    const BATCH: Duration = Duration::from_millis(25);
    const WARMUP: usize = 4;
    const FIRST_BATCHES: usize = 8;
    const BATCHES_BETWEEN_CALLS: usize = 2;

    pub fn new(mut setup: F) -> SetupTimer<F> {
        let mut per_batch = 1usize;
        loop {
            let start = Instant::now();
            for _ in 0..per_batch {
                setup();
            }
            if start.elapsed() >= Self::BATCH {
                break;
            }
            per_batch *= 2;
        }
        let mut timer = SetupTimer {
            setup,
            per_batch,
            samples: Vec::new(),
        };
        for _ in 0..Self::WARMUP {
            timer.time_batch();
        }
        timer.samples.clear();
        for _ in 0..Self::FIRST_BATCHES {
            timer.time_batch();
        }
        timer
    }

    fn time_batch(&mut self) {
        let start = Instant::now();
        for _ in 0..self.per_batch {
            (self.setup)();
        }
        self.samples
            .push(start.elapsed().as_secs_f64() / self.per_batch as f64);
    }

    /// Times the batches that run between two measured calls, after
    /// one discarded batch that refaults the memory the call released.
    pub fn between_calls(&mut self) {
        let kept = self.samples.len();
        self.time_batch();
        self.samples.truncate(kept);
        for _ in 0..Self::BATCHES_BETWEEN_CALLS {
            self.time_batch();
        }
    }

    /// Seconds of one set-up, one sample per batch.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Wall and CPU seconds of one measured call, and this process's RSS
/// (MiB) at its start and at its peak.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub wall: f64,
    pub cpu: f64,
    pub start_mb: f64,
    pub peak_mb: f64,
}

/// Times `call`: wall clock, process-plus-children CPU, and this
/// process's peak RSS during the call. Before the call, freed heap goes
/// back to the kernel and the high-water mark is reset, so each call
/// starts from the footprint a fresh process would have and memory an
/// earlier call left in the allocator does not count.
pub fn sample<T>(call: impl FnOnce() -> T) -> (Sample, T) {
    // SAFETY: malloc_trim takes no pointers and only releases free
    // chunks; it is safe to call at any time from any thread.
    unsafe { malloc_trim(0) };
    // Writing 5 to clear_refs resets VmHWM; where the kernel refuses,
    // the peak stays the process-wide one.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
    let start_mb = rss_mb();
    let cpu0 = cpu_total();
    let start = Instant::now();
    let out = call();
    let wall = start.elapsed().as_secs_f64();
    (
        Sample {
            wall,
            cpu: cpu_total() - cpu0,
            start_mb,
            peak_mb: peak_rss_mb(),
        },
        out,
    )
}

/// One recorded span: a layer call made by the benchmark, with the
/// number of operations it covered (a batch of identical calls is one
/// span with `ops > 1`).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub ops: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn per_op_ns(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / self.ops.max(1) as f64
    }
}

/// In-memory span recorder. Off, it only runs the wrapped calls.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` covering `ops` operations.
    pub fn span<T>(&mut self, name: &'static str, ops: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            ops,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now_ns();
        let out = f(self);
        self.spans[id].end_ns = self.now_ns();
        self.open.pop();
        out
    }

    /// A position in the recording, for [`Tracer::since`].
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Spans named `name` recorded after `mark`, in recording order.
    pub fn since<'a>(&'a self, mark: usize, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans[mark..].iter().filter(move |s| s.name == name)
    }

    /// Median per-operation nanoseconds of the spans named `name`
    /// recorded after `mark`.
    pub fn per_op_median_ns(&self, mark: usize, name: &str) -> f64 {
        median(
            &self
                .since(mark, name)
                .map(Span::per_op_ns)
                .collect::<Vec<_>>(),
        )
    }

    /// Per layer: (name, spans, operations, total seconds, self seconds).
    /// Self time is a span's duration minus the time its children cover.
    pub fn summary(&self) -> Vec<(&'static str, usize, u64, f64, f64)> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let mut rows: Vec<(&'static str, usize, u64, f64, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(row) => row,
                None => {
                    rows.push((s.name, 0, 0, 0.0, 0.0));
                    rows.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += s.ops;
            row.3 += s.secs();
            row.4 += s.secs() - child_secs[i];
        }
        rows
    }

    /// All spans as JSON lines-in-an-array (name, start, end, parent, ops).
    pub fn spans_json(&self) -> String {
        let lines: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "    {{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"ops\": {}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.ops
                )
            })
            .collect();
        format!("[\n{}\n  ]", lines.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", 1, |t| {
            t.span("inner", 4, |_| {
                std::thread::sleep(Duration::from_millis(20))
            });
        });
        let rows = t.summary();
        let outer = rows.iter().find(|r| r.0 == "outer").expect("outer row");
        let inner = rows.iter().find(|r| r.0 == "inner").expect("inner row");
        assert_eq!((outer.1, inner.1, inner.2), (1, 1, 4));
        assert!(inner.3 >= 0.02 && outer.3 >= inner.3);
        assert!(outer.4 < inner.3, "outer self time excludes the child");
        assert_eq!(t.since(0, "inner").next().and_then(|s| s.parent), Some(0));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 1, |_| 7), 7);
        assert!(t.summary().is_empty());
    }
}
