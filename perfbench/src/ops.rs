//! Seeded operation streams: what each workload asks the kernel to do.
//!
//! A [`Stream`] is plain data generated from the workload and the seed
//! alone: the set-up calls, the measured calls, and the reference patterns
//! the compute bursts replay. The executor in `exec.rs` runs it; nothing
//! here touches a kernel. [`Stream::bytes`] gives the byte form the
//! determinism tests compare.

use kernel_sim::sched::USER_BASE;

/// Bytes per page.
pub const PAGE: u32 = 4096;

/// Instructions fetched by one text reference in a burst (one 32-byte line).
pub const FETCH_INSNS: u32 = 8;

/// Burst pattern regions, stored in the top two bits of a pattern code.
pub const REGION_HOT: u32 = 0;
/// The wide data set.
pub const REGION_WIDE: u32 = 1;
/// Program text: the code is an instruction fetch, not a data reference.
pub const REGION_TEXT: u32 = 2;

/// Packs one burst reference: region, byte offset (word-aligned, below
/// 1 GiB) and whether it is a store.
pub fn code(region: u32, offset: u32, write: bool) -> u32 {
    debug_assert!(region < 4 && offset < 1 << 30 && offset.is_multiple_of(4));
    region << 30 | offset | u32::from(write)
}

/// Unpacks a burst reference into `(region, offset, write)`.
pub fn decode(c: u32) -> (u32, u32, bool) {
    (c >> 30, c & 0x3fff_fffc, c & 1 != 0)
}

/// An address the stream names: fixed, or the start of the mapping an
/// earlier [`Op::Mmap`] stored in a register (known only at run time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Addr {
    /// A fixed effective address.
    Fixed(u32),
    /// The mapping recorded in this address register.
    Mapped(u8),
}

/// One kernel call (or, for [`Op::Burst`], one run of user references).
/// Processes are named by slot, files and pipes by creation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `create_file(bytes)`; files are numbered in creation order.
    CreateFile { bytes: u32 },
    /// `pipe_create()`; pipes are numbered in creation order.
    PipeCreate,
    /// `spawn_process(ws_pages)`, recording the PID in `slot`.
    Spawn { slot: u8, ws_pages: u32 },
    /// `switch_to` the process in `slot`.
    Switch { slot: u8 },
    /// `sys_fork` from the current process, recording the child in `slot`.
    Fork { slot: u8 },
    /// `sys_exec` of `file` in the current process.
    Exec {
        file: u8,
        text_pages: u32,
        heap_pages: u32,
    },
    /// `exit_current`.
    Exit,
    /// `sys_read` of `len` bytes of `file` at `offset` into `at`.
    Read {
        file: u8,
        offset: u32,
        at: Addr,
        len: u32,
    },
    /// `prefault` of `pages` pages from `at`.
    Prefault { at: Addr, pages: u32 },
    /// `sys_mmap` of `pages` pages (anonymous when `file` is `None`),
    /// recording the address in register `reg`.
    Mmap {
        reg: u8,
        file: Option<u8>,
        pages: u32,
    },
    /// `sys_munmap` of `pages` pages at the mapping in register `reg`.
    Munmap { reg: u8, pages: u32 },
    /// Replays reference pattern `pattern` with the given region bases:
    /// `data_ref` for hot and wide codes, `exec_code` for text codes.
    Burst {
        pattern: u16,
        hot: Addr,
        wide: Addr,
        text: Addr,
    },
    /// `user_write` of `len` bytes at `at`.
    Write { at: Addr, len: u32 },
    /// `run_idle(cycles)`.
    Idle { cycles: u32 },
    /// `pipe_write` of `len` bytes from `at`.
    PipeWrite { pipe: u8, at: Addr, len: u32 },
    /// `pipe_read` of `len` bytes into `at`.
    PipeRead { pipe: u8, at: Addr, len: u32 },
    /// `sys_signal_install` in the current process.
    SignalInstall,
    /// `signal_roundtrip` with the handler at `handler`.
    Signal { handler: Addr },
    /// A store outside every mapping: the kernel kills the current process
    /// with SIGSEGV.
    Segv { at: Addr },
}

/// A workload's generated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// Calls that build the starting state (files, processes, pipes).
    pub setup: Vec<Op>,
    /// The measured calls.
    pub ops: Vec<Op>,
    /// Reference patterns replayed by [`Op::Burst`].
    pub patterns: Vec<Vec<u32>>,
}

impl Stream {
    /// Total references the measured bursts replay.
    pub fn burst_refs(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Burst { pattern, .. } => self.patterns[*pattern as usize].len() as u64,
                _ => 0,
            })
            .sum()
    }

    /// A stable byte form of the whole stream: its `Debug` rendering.
    pub fn bytes(&self) -> Vec<u8> {
        format!("{self:?}").into_bytes()
    }

    /// FNV-1a digest of [`Stream::bytes`], printed so runs can be matched.
    pub fn digest(&self) -> u64 {
        self.bytes().iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-use `stream` tag.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// True with probability `pct`/100.
    pub fn chance(&mut self, pct: u32) -> bool {
        self.below(100) < pct
    }

    /// A random word offset within a page.
    pub fn word(&mut self) -> u32 {
        self.below(PAGE / 4) * 4
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u32 + 1) as usize);
        }
    }
}

/// The compile workload's shape: paper §4's kernel compile, with the
/// parameters of `lmbench::compile::CompileConfig::full()`.
pub mod compile {
    /// Compilation units per stream.
    pub const UNITS: u32 = 24;
    /// Pages of the compiler's hot arena.
    pub const HOT_PAGES: u32 = 4;
    /// Percent of hot-arena references that go to its first page.
    pub const HOT_LOCALITY_PCT: u32 = 95;
    /// Percent of hot-arena references that are stores.
    pub const STORE_PCT: u32 = 35;
    /// Demand-zero pages each unit allocates.
    pub const ALLOC_PAGES: u32 = 6;
    /// Pages of the mapped wide set: larger than the 604's TLB reach.
    pub const WIDE_PAGES: u32 = 192;
    /// Percent of each burst's references that read the wide set.
    pub const WIDE_PCT: u32 = 15;
    /// Data references in each unit's compute phase.
    pub const REFS_PER_UNIT: u32 = 80_000;
    /// Compute bursts per unit, each followed by an idle gap.
    pub const SLICES: u32 = 12;
    /// References per burst.
    pub const BURST_REFS: u32 = REFS_PER_UNIT / SLICES;
    /// Distinct burst patterns.
    pub const PATTERNS: u32 = 32;
    /// Simulated cycles of each idle gap (an I/O stall).
    pub const IDLE_CYCLES: u32 = 60_000;
    /// Bytes of source each unit reads.
    pub const SOURCE_BYTES: u32 = 48 * 1024;
    /// Bytes of object file each unit writes: its allocated pages.
    pub const OBJECT_BYTES: u32 = ALLOC_PAGES * super::PAGE;
}

/// The churn workload's shape.
pub mod churn {
    /// Rounds per stream.
    pub const ROUNDS: u32 = 16;
    /// Every this many rounds, two memory hogs outgrow RAM.
    pub const HOG_EVERY: u32 = 8;
    /// Pages each hog touches; two of them exceed the frame pool.
    pub const HOG_PAGES: u32 = 4_000;
    /// Shell working-set pages (shared copy-on-write with every fork).
    pub const SHELL_PAGES: u32 = 64;
    /// Processes in the pipe token ring.
    pub const RING: u8 = 8;
    /// Working-set pages of each ring process.
    pub const RING_PAGES: u32 = 32;
    /// Pages of the anonymous mapping each mmap/munmap episode makes (16 MiB).
    pub const MMAP_PAGES: u32 = 4_096;
    /// Bytes each pipe hop carries.
    pub const TOKEN_BYTES: u32 = 512;
    /// Pages of the data file the shell reads (evicted under memory pressure).
    pub const DATA_PAGES: u32 = 256;
    /// Pattern variants per family.
    pub const VARIANTS: u32 = 8;
}

/// The workload generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Paper §4's kernel compile.
    Compile,
    /// Process and VM churn.
    Churn,
}

/// Generates the stream for `shape` from `seed`.
pub fn generate(shape: Shape, seed: u64) -> Stream {
    match shape {
        Shape::Compile => gen_compile(seed),
        Shape::Churn => gen_churn(seed),
    }
}

fn gen_compile(seed: u64) -> Stream {
    use compile::*;
    let mut rng = Rng::new(seed, 1);
    let alloc_base = USER_BASE + HOT_PAGES * PAGE;
    // Files: 0 = the source every unit reads, 1 = the wide set.
    let setup = vec![
        Op::CreateFile {
            bytes: SOURCE_BYTES,
        },
        Op::CreateFile {
            bytes: WIDE_PAGES * PAGE,
        },
    ];
    let patterns = (0..PATTERNS).map(|_| compile_pattern(&mut rng)).collect();
    let wide = Addr::Mapped(0);
    let mut ops = Vec::new();
    for _ in 0..UNITS {
        ops.extend([
            Op::Spawn {
                slot: 0,
                ws_pages: HOT_PAGES + ALLOC_PAGES + 16,
            },
            Op::Switch { slot: 0 },
            Op::Read {
                file: 0,
                offset: 0,
                at: Addr::Fixed(USER_BASE),
                len: SOURCE_BYTES,
            },
            Op::Prefault {
                at: Addr::Fixed(alloc_base),
                pages: ALLOC_PAGES,
            },
            Op::Mmap {
                reg: 0,
                file: Some(1),
                pages: WIDE_PAGES,
            },
            Op::Prefault {
                at: wide,
                pages: WIDE_PAGES,
            },
        ]);
        for _ in 0..SLICES {
            ops.push(Op::Burst {
                pattern: rng.below(PATTERNS) as u16,
                hot: Addr::Fixed(USER_BASE),
                wide,
                text: Addr::Fixed(0),
            });
            ops.push(Op::Idle {
                cycles: IDLE_CYCLES,
            });
        }
        ops.push(Op::Write {
            at: Addr::Fixed(alloc_base),
            len: OBJECT_BYTES,
        });
        ops.push(Op::Exit);
    }
    Stream {
        setup,
        ops,
        patterns,
    }
}

/// One compute burst: hot-arena references (95% to its first page, 35%
/// stores), then 15% of the burst as reads spread over the wide set.
fn compile_pattern(rng: &mut Rng) -> Vec<u32> {
    use compile::*;
    let wide_refs = BURST_REFS * WIDE_PCT / 100;
    let mut p: Vec<u32> = (0..BURST_REFS - wide_refs)
        .map(|_| {
            let page = if rng.chance(HOT_LOCALITY_PCT) {
                0
            } else {
                rng.below(HOT_PAGES)
            };
            code(REGION_HOT, page * PAGE + rng.word(), rng.chance(STORE_PCT))
        })
        .collect();
    p.extend(spread_pattern(rng, REGION_WIDE, WIDE_PAGES, wide_refs, 0));
    p
}

/// `n` references over `pages` pages of one region, `write_pct`% stores.
fn spread_pattern(rng: &mut Rng, region: u32, pages: u32, n: u32, write_pct: u32) -> Vec<u32> {
    (0..n)
        .map(|_| {
            code(
                region,
                rng.below(pages) * PAGE + rng.word(),
                rng.chance(write_pct),
            )
        })
        .collect()
}

fn gen_churn(seed: u64) -> Stream {
    use churn::*;
    let mut rng = Rng::new(seed, 2);
    let shell = 0u8;
    let child = RING + 1;
    let (hog_a, hog_b) = (RING + 2, RING + 3);
    // Files: 0 = a small binary, 1 = the exec'd binary, 2 = a data file.
    let mut setup = vec![
        Op::CreateFile { bytes: 16 * PAGE },
        Op::CreateFile { bytes: 32 * PAGE },
        Op::CreateFile {
            bytes: DATA_PAGES * PAGE,
        },
        Op::Spawn {
            slot: shell,
            ws_pages: SHELL_PAGES + 8,
        },
        Op::Switch { slot: shell },
        Op::Prefault {
            at: Addr::Fixed(USER_BASE),
            pages: SHELL_PAGES,
        },
        Op::SignalInstall,
    ];
    for i in 1..=RING {
        setup.extend([
            Op::Spawn {
                slot: i,
                ws_pages: RING_PAGES,
            },
            Op::Switch { slot: i },
            Op::Prefault {
                at: Addr::Fixed(USER_BASE),
                pages: RING_PAGES,
            },
        ]);
    }
    setup.extend((0..RING).map(|_| Op::PipeCreate));
    setup.push(Op::Switch { slot: shell });

    // Pattern families, VARIANTS each: child stores into the shared shell
    // pages (COW faults), exec'd text and heap, sparse stores into the 16 MiB
    // mapping (demand-zero faults), and the ring processes' working sets.
    let v = VARIANTS as u16;
    let mut patterns = Vec::new();
    for _ in 0..v {
        patterns.push(spread_pattern(&mut rng, REGION_HOT, SHELL_PAGES, 64, 25));
    }
    for _ in 0..v {
        let mut p = spread_pattern(&mut rng, REGION_HOT, 16, 96, 50);
        p.extend((0..32).map(|_| {
            code(
                REGION_TEXT,
                rng.below(8) * PAGE + rng.below(PAGE / 32) * 32,
                false,
            )
        }));
        rng.shuffle(&mut p);
        patterns.push(p);
    }
    for _ in 0..v {
        patterns.push(spread_pattern(&mut rng, REGION_HOT, MMAP_PAGES, 48, 50));
    }
    for _ in 0..v {
        patterns.push(spread_pattern(&mut rng, REGION_HOT, RING_PAGES, 256, 30));
    }
    let (touch, exec, mmap, ring) = (0, v, 2 * v, 3 * v);
    let pick = |base: u16, rng: &mut Rng| base + rng.below(VARIANTS) as u16;

    let user = |page: u32| Addr::Fixed(USER_BASE + page * PAGE);
    let none = Addr::Fixed(0);
    let mut ops = Vec::new();
    for round in 0..ROUNDS {
        // Episodes in a seeded order; hogs always close their round. Each
        // episode stands for one `lmbench` row: 0 `fork_latency`, 2
        // `exec_latency`, 3 `mmap_latency_sized`, 4 `ctx_switch` (8
        // processes, 32 pages) over pipes, 5 `sig_catch`, 6 `file_reread`;
        // 1 is the fatal-signal teardown and the hogs the pressure path. The
        // counts per round are an assumption, not a measured process mix.
        let mut episodes = [0u8, 0, 0, 0, 1, 2, 2, 3, 4, 5, 6];
        rng.shuffle(&mut episodes);
        for e in episodes {
            ops.push(Op::Switch { slot: shell });
            match e {
                // fork + exit, the child dirtying shared pages.
                0 => ops.extend([
                    Op::Fork { slot: child },
                    Op::Switch { slot: child },
                    Op::Burst {
                        pattern: pick(touch, &mut rng),
                        hot: user(0),
                        wide: none,
                        text: none,
                    },
                    Op::Exit,
                ]),
                // fork + a child that dies on SIGSEGV.
                1 => ops.extend([
                    Op::Fork { slot: child },
                    Op::Switch { slot: child },
                    Op::Segv {
                        at: Addr::Fixed(0x5000_0000 + rng.below(256) * PAGE),
                    },
                ]),
                // fork + exec + run + exit.
                2 => ops.extend([
                    Op::Fork { slot: child },
                    Op::Switch { slot: child },
                    Op::Exec {
                        file: 1,
                        text_pages: 32,
                        heap_pages: 16,
                    },
                    Op::Prefault {
                        at: user(0),
                        pages: 8,
                    },
                    Op::Burst {
                        pattern: pick(exec, &mut rng),
                        hot: user(32),
                        wide: none,
                        text: user(0),
                    },
                    Op::Exit,
                ]),
                // 16 MiB mmap, sparse demand-zero stores, munmap.
                3 => ops.extend([
                    Op::Mmap {
                        reg: 0,
                        file: None,
                        pages: MMAP_PAGES,
                    },
                    Op::Prefault {
                        at: Addr::Mapped(0),
                        pages: 16,
                    },
                    Op::Burst {
                        pattern: pick(mmap, &mut rng),
                        hot: Addr::Mapped(0),
                        wide: none,
                        text: none,
                    },
                    Op::Munmap {
                        reg: 0,
                        pages: MMAP_PAGES,
                    },
                ]),
                // One lap of the pipe token ring.
                4 => {
                    for i in 1..=RING {
                        let next = i % RING + 1;
                        ops.extend([
                            Op::Switch { slot: i },
                            Op::Burst {
                                pattern: pick(ring, &mut rng),
                                hot: user(0),
                                wide: none,
                                text: none,
                            },
                            Op::PipeWrite {
                                pipe: i - 1,
                                at: user(RING_PAGES - 1),
                                len: TOKEN_BYTES,
                            },
                            Op::Switch { slot: next },
                            Op::PipeRead {
                                pipe: i - 1,
                                at: user(RING_PAGES - 2),
                                len: TOKEN_BYTES,
                            },
                        ]);
                    }
                }
                // Signal round trips in the shell.
                5 => ops.extend((0..4).map(|_| Op::Signal { handler: user(0) })),
                // Re-read part of the data file (refills evicted pages).
                6 => ops.push(Op::Read {
                    file: 2,
                    offset: rng.below(DATA_PAGES - 4) * PAGE,
                    at: user(SHELL_PAGES),
                    len: 4 * PAGE,
                }),
                _ => unreachable!("episode ids are 0..=6"),
            }
        }
        if round % HOG_EVERY == HOG_EVERY - 1 {
            // Two hogs that together outgrow RAM: the page cache is reclaimed
            // first, then the OOM killer reaps the first hog.
            ops.extend([
                Op::Spawn {
                    slot: hog_a,
                    ws_pages: HOG_PAGES,
                },
                Op::Switch { slot: hog_a },
                Op::Prefault {
                    at: user(0),
                    pages: HOG_PAGES,
                },
                Op::Spawn {
                    slot: hog_b,
                    ws_pages: HOG_PAGES,
                },
                Op::Switch { slot: hog_b },
                Op::Prefault {
                    at: user(0),
                    pages: HOG_PAGES,
                },
                Op::Exit,
            ]);
        }
    }
    ops.push(Op::Switch { slot: shell });
    Stream {
        setup,
        ops,
        patterns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_bytes() {
        for shape in [Shape::Compile, Shape::Churn] {
            assert_eq!(generate(shape, 7).bytes(), generate(shape, 7).bytes());
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        for shape in [Shape::Compile, Shape::Churn] {
            assert_ne!(generate(shape, 7).bytes(), generate(shape, 8).bytes());
        }
    }

    #[test]
    fn seeds_keep_the_amount_of_work() {
        for shape in [Shape::Compile, Shape::Churn] {
            let (a, b) = (generate(shape, 1), generate(shape, 2));
            assert_eq!(a.ops.len(), b.ops.len());
            assert_eq!(a.burst_refs(), b.burst_refs());
        }
    }

    #[test]
    fn codes_round_trip() {
        for (r, off, w) in [
            (REGION_HOT, 0, false),
            (REGION_WIDE, 191 * PAGE + 4092, true),
            (REGION_TEXT, 32, false),
        ] {
            assert_eq!(decode(code(r, off, w)), (r, off, w));
        }
    }
}
