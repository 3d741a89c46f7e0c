//! Timing and allocation accounting around every call into the runtime.
//!
//! The benchmark wraps each call it makes into a runtime layer in
//! [`Probe::call`]. Untraced, that only counts the allocations the call
//! made (for `host_allocs_per_launch`). Traced, it also records a span:
//! layer, start, end, the unit span that caused it, the request id and
//! the allocations inside. A *unit* is what the workload loop repeats:
//! one request on `paper-p100` and `sched-cluster`, one round of all
//! tenants on `serve-tenants`. Spans stay in memory until the run ends.

use std::io::Write as _;
use std::time::Instant;

use crate::alloc;

/// A timed boundary: one layer of the runtime, as named in the docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Kernel::launch`.
    Launch,
    /// `GrCuda::sync`.
    Sync,
    /// `DeviceArray::get_*`.
    Read,
    /// `DeviceArray::copy_from_*` and `ServiceCore::write`.
    Write,
    /// `GrCuda::build_kernel` and `ServiceCore::register_kernel`.
    BuildKernel,
    /// `ServiceCore::submit`.
    ServeSubmit,
    /// `ServiceCore::pump`.
    ServePump,
    /// `ServiceCore::read`.
    ServeRead,
    /// `KernelDef::func`, replayed outside the runtime.
    Payload,
    /// One unit of the workload loop (the parent of the calls above).
    Unit,
}

impl Layer {
    /// Every layer whose calls the workloads time, in report order.
    pub const CALLS: [Layer; 8] = [
        Layer::Launch,
        Layer::Sync,
        Layer::Read,
        Layer::Write,
        Layer::BuildKernel,
        Layer::ServeSubmit,
        Layer::ServePump,
        Layer::ServeRead,
    ];

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Launch => "grcuda.launch",
            Layer::Sync => "grcuda.sync",
            Layer::Read => "grcuda.read",
            Layer::Write => "grcuda.write",
            Layer::BuildKernel => "grcuda.build_kernel",
            Layer::ServeSubmit => "grcuda.serve.submit",
            Layer::ServePump => "grcuda.serve.pump",
            Layer::ServeRead => "grcuda.serve.read",
            Layer::Payload => "kernels.payload",
            Layer::Unit => "unit",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer the call went into.
    pub layer: Layer,
    /// Start, ns since the probe was created.
    pub start_ns: u64,
    /// End, ns since the probe was created.
    pub end_ns: u64,
    /// Index of the unit span that caused it (`u32::MAX`: none).
    pub parent: u32,
    /// Request id the call belongs to.
    pub request: u32,
    /// Heap allocations made inside the call.
    pub allocs: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open unit, returned by [`Probe::begin_unit`].
pub struct UnitMark {
    start: Instant,
    span: u32,
}

/// Per-call accounting plus the in-memory span store.
pub struct Probe {
    /// A traced run: spans may be recorded at all.
    enabled: bool,
    /// Spans are being recorded now.
    tracing: bool,
    epoch: Instant,
    spans: Vec<Span>,
    unit: u32,
    request: u32,
    runtime_allocs: u64,
}

impl Probe {
    /// A probe for a traced (`enabled`) or untraced run. A traced run
    /// reserves room for many spans up front, so recording rarely has to
    /// grow the store.
    pub fn new(enabled: bool) -> Self {
        let capacity = if enabled { 1 << 21 } else { 0 };
        Probe {
            enabled,
            tracing: false,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            unit: NO_PARENT,
            request: 0,
            runtime_allocs: 0,
        }
    }

    /// Turn span recording on or off in a traced run (allocation
    /// counting stays on either way).
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on && self.enabled;
    }

    /// Run `f`, a set-up call into `layer`: recorded in every traced run,
    /// whether or not the current round is traced.
    pub fn setup_call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let was = self.tracing;
        self.tracing = self.enabled;
        let r = self.call(layer, f);
        self.tracing = was;
        r
    }

    /// Whether spans are being recorded.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Set the request id the next calls belong to.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    /// Allocations made inside every probed call so far.
    pub fn runtime_allocs(&self) -> u64 {
        self.runtime_allocs
    }

    /// ns since the probe was created.
    pub fn clock_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f`, a call into `layer`, and account for it.
    #[inline]
    pub fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.tracing {
            let a0 = alloc::count();
            let r = f();
            self.runtime_allocs += alloc::count() - a0;
            return r;
        }
        let start_ns = self.clock_ns();
        let a0 = alloc::count();
        let r = f();
        let allocs = alloc::count() - a0;
        let end_ns = self.clock_ns();
        self.runtime_allocs += allocs;
        // Growing the store, if ever, happens after the call's allocation
        // count was read, so it is never charged to the runtime.
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns,
            parent: self.unit,
            request: self.request,
            allocs: allocs as u32,
        });
        r
    }

    /// Open a unit of the workload loop.
    pub fn begin_unit(&mut self) -> UnitMark {
        let span = if self.tracing {
            let now = self.clock_ns();
            self.spans.push(Span {
                layer: Layer::Unit,
                start_ns: now,
                end_ns: now,
                parent: NO_PARENT,
                request: self.request,
                allocs: 0,
            });
            self.unit = (self.spans.len() - 1) as u32;
            self.unit
        } else {
            NO_PARENT
        };
        UnitMark {
            start: Instant::now(),
            span,
        }
    }

    /// Close a unit; returns its host time in seconds.
    pub fn end_unit(&mut self, mark: UnitMark) -> f64 {
        let secs = mark.start.elapsed().as_secs_f64();
        if mark.span != NO_PARENT {
            self.spans[mark.span as usize].end_ns = self.clock_ns();
        }
        self.unit = NO_PARENT;
        secs
    }

    /// Record a replayed payload call (outside any unit).
    pub fn payload_span(&mut self, start_ns: u64, end_ns: u64, request: u32) {
        self.spans.push(Span {
            layer: Layer::Payload,
            start_ns,
            end_ns,
            parent: NO_PARENT,
            request,
            allocs: 0,
        });
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that
    /// its child spans cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &self.spans[s.parent as usize];
                let lo = s.start_ns.max(p.start_ns);
                let hi = s.end_ns.min(p.end_ns);
                covered[s.parent as usize] += hi.saturating_sub(lo);
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Write the spans as tab-separated text.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        writeln!(out, "layer\tstart_ns\tend_ns\tparent\trequest\tallocs")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                parent,
                s.request,
                s.allocs
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut p = Probe::new(true);
        p.set_tracing(true);
        let mark = p.begin_unit();
        p.call(Layer::Launch, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        p.end_unit(mark);
        let selfs = p.self_times();
        let spans = p.spans();
        assert_eq!(spans[0].layer, Layer::Unit);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(selfs[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(selfs[1], spans[1].dur_ns());
    }

    #[test]
    fn untraced_calls_record_no_spans() {
        let mut p = Probe::new(false);
        p.set_tracing(true);
        let mark = p.begin_unit();
        let v = p.call(Layer::Read, || vec![1u8; 4]);
        p.end_unit(mark);
        assert_eq!(v.len(), 4);
        assert!(p.spans().is_empty());
        assert!(p.runtime_allocs() >= 1);
    }
}
