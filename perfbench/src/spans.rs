//! In-memory host spans for the traced run.
//!
//! The traced run wraps every kernel call it makes in a span (name, start,
//! end, parent); the run itself is the root span. Spans stay in memory
//! until the run ends. A layer's self time is its spans' durations minus the
//! parts their children cover, so the self times of all layers, plus the
//! root's own self time (the benchmark loop's unattributed remainder), add up to
//! the root span: the traced run's wall time.

use std::io::Write;
use std::time::Instant;

/// The layers the benchmark times, one per kind of call it makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The root span: the benchmark's own loop, between calls.
    Root,
    /// A compute burst of user references (`data_ref` / `exec_code`).
    Burst,
    /// A user copy loop (`user_write`).
    Write,
    /// `spawn_process`.
    Spawn,
    /// `switch_to`.
    Switch,
    /// `sys_fork`.
    Fork,
    /// `sys_exec`.
    Exec,
    /// `exit_current`.
    Exit,
    /// `sys_read`.
    Read,
    /// `prefault`: one page fault per page.
    Fault,
    /// `sys_mmap`.
    Mmap,
    /// `sys_munmap`.
    Munmap,
    /// `run_idle`.
    Idle,
    /// `pipe_write` and `pipe_read`.
    Pipe,
    /// `signal_roundtrip` and `sys_signal_install`.
    Signal,
    /// A wild store the kernel answers with SIGSEGV and a teardown.
    Segv,
}

impl Layer {
    /// Every layer in declaration order (so `layer as usize` indexes it),
    /// the root first.
    pub const ALL: [Layer; 16] = [
        Layer::Root,
        Layer::Burst,
        Layer::Write,
        Layer::Spawn,
        Layer::Switch,
        Layer::Fork,
        Layer::Exec,
        Layer::Exit,
        Layer::Read,
        Layer::Fault,
        Layer::Mmap,
        Layer::Munmap,
        Layer::Idle,
        Layer::Pipe,
        Layer::Signal,
        Layer::Segv,
    ];

    /// The layer's metric name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Root => "root",
            Layer::Burst => "machine.burst",
            Layer::Write => "machine.write",
            Layer::Spawn => "kernel.spawn",
            Layer::Switch => "kernel.switch",
            Layer::Fork => "kernel.fork",
            Layer::Exec => "kernel.exec",
            Layer::Exit => "kernel.exit",
            Layer::Read => "kernel.read",
            Layer::Fault => "kernel.fault",
            Layer::Mmap => "kernel.mmap",
            Layer::Munmap => "kernel.munmap",
            Layer::Idle => "kernel.idle",
            Layer::Pipe => "kernel.pipe",
            Layer::Signal => "kernel.signal",
            Layer::Segv => "kernel.segv",
        }
    }
}

/// Counter deltas attached to a span: read outside its timed interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deltas {
    /// Units of work: references (bursts), pages (faults), simulated cycles
    /// (idle), pages flushed (munmap); 1 otherwise.
    pub work: u64,
    /// References that took no TLB miss, no L1 miss and no fault.
    pub fast: u64,
    /// TLB misses, both sides.
    pub tlb_misses: u64,
    /// Data-cache misses.
    pub dmisses: u64,
    /// Instruction-cache misses.
    pub imisses: u64,
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which layer.
    pub layer: Layer,
    /// Index of the enclosing span; `u32::MAX` for the root.
    pub parent: u32,
    /// Start, in ns since the log's origin.
    pub start: u64,
    /// End, in ns since the log's origin.
    pub end: u64,
    /// Counter deltas over the span.
    pub deltas: Deltas,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// A traced run's spans, root first.
#[derive(Debug, Clone)]
pub struct SpanLog {
    origin: Instant,
    /// Every span, in start order; index 0 is the root.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Opens the root span now.
    pub fn start() -> Self {
        let origin = Instant::now();
        let root = Span {
            layer: Layer::Root,
            parent: u32::MAX,
            start: 0,
            end: 0,
            deltas: Deltas::default(),
        };
        SpanLog {
            origin,
            spans: vec![root],
        }
    }

    /// Nanoseconds since the root opened.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a child of the root.
    pub fn push(&mut self, layer: Layer, start: u64, end: u64, deltas: Deltas) {
        self.spans.push(Span {
            layer,
            parent: 0,
            start,
            end,
            deltas,
        });
    }

    /// Closes the root span now.
    pub fn finish(&mut self) {
        self.spans[0].end = self.now();
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans[1..] {
            covered[s.parent as usize] += s.ns();
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// Self time summed per layer, indexed like [`Layer::ALL`].
    pub fn self_by_layer(&self) -> [u64; Layer::ALL.len()] {
        let mut out = [0u64; Layer::ALL.len()];
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            out[s.layer as usize] += ns;
        }
        out
    }

    /// Writes the spans as tab-separated rows with a header.
    pub fn write_tsv(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            w,
            "id\tparent\tname\tstart_ns\tend_ns\tself_ns\twork\tfast\ttlb_misses\tdmisses\timisses"
        )?;
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = if s.parent == u32::MAX {
                -1
            } else {
                i64::from(s.parent)
            };
            let d = s.deltas;
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{self_ns}\t{}\t{}\t{}\t{}\t{}",
                s.layer.name(),
                s.start,
                s.end,
                d.work,
                d.fast,
                d.tlb_misses,
                d.dmisses,
                d.imisses
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut log = SpanLog::start();
        log.push(Layer::Burst, 10, 40, Deltas::default());
        log.push(Layer::Idle, 50, 60, Deltas::default());
        log.spans[0].end = 100;
        let by_layer = log.self_by_layer();
        assert_eq!(by_layer[Layer::Burst as usize], 30);
        assert_eq!(by_layer[Layer::Idle as usize], 10);
        assert_eq!(by_layer[Layer::Root as usize], 60);
        assert_eq!(by_layer.iter().sum::<u64>(), log.spans[0].ns());
    }
}
