//! In-memory spans for the traced run, plus the process clocks both runs
//! read.
//!
//! The benchmark records spans from its own code, around each public call
//! it makes into a layer of the program; the program itself is not
//! instrumented. Spans stay in memory while the run measures and are
//! written out once, after it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug)]
struct Span {
    /// Dotted metric-style name, e.g. `cnn.conv1.exec`.
    name: String,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Wall-clock start, seconds since the tracer was created.
    start_s: f64,
    /// Wall-clock end, seconds since the tracer was created.
    end_s: f64,
    /// Process CPU time (user + sys, all threads) spent inside the span.
    cpu_s: f64,
}

impl Span {
    /// Wall-clock duration in seconds.
    fn wall_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records nested spans in memory.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span.
    pub fn span<T>(&mut self, name: impl Into<String>, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.spans.len();
        let cpu0 = cpu_seconds();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().copied(),
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            cpu_s: f64::NAN,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let span = &mut self.spans[id];
        span.end_s = self.epoch.elapsed().as_secs_f64();
        span.cpu_s = cpu_seconds() - cpu0;
        out
    }

    /// Index the next span will get; pass it to the queries below to look
    /// only at spans recorded after this point.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Closed spans named `name` recorded since `since`.
    fn named<'a>(&'a self, since: usize, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans[since..].iter().filter(move |s| s.name == name)
    }

    /// Summed wall time of every span named `name` since `since`.
    pub fn wall(&self, since: usize, name: &str) -> f64 {
        self.named(since, name).map(Span::wall_s).sum()
    }

    /// Summed process CPU time of every span named `name` since `since`.
    pub fn cpu(&self, since: usize, name: &str) -> f64 {
        self.named(since, name).map(|s| s.cpu_s).sum()
    }

    /// Self time of the last span named `name` since `since`: its duration
    /// minus the part of it that its child spans cover.
    pub fn self_time(&self, since: usize, name: &str) -> f64 {
        let Some(id) = (since..self.spans.len())
            .rev()
            .find(|&i| self.spans[i].name == name)
        else {
            return f64::NAN;
        };
        let parent = &self.spans[id];
        let mut children: Vec<(f64, f64)> = self.spans[id + 1..]
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_s.max(parent.start_s), s.end_s.min(parent.end_s)))
            .collect();
        children.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = parent.start_s;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        parent.wall_s() - covered
    }

    /// Every span as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{},\"cpu_s\":{}}}",
                s.name, s.start_s, s.end_s, s.cpu_s
            );
        }
        out
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + sys) the process has used so far, over all threads.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the kernel
    // always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of the process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Resident set size of the process now, in MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} line in /proc/self/status"));
    kib / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_child_spans() {
        let mut t = Tracer::default();
        t.span("root", |t| {
            t.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let root = t.wall(0, "root");
        let children = t.wall(0, "a") + t.wall(0, "b");
        let own = t.self_time(0, "root");
        assert!(own >= 0.0 && (root - children - own).abs() < 1e-9);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}
