//! Per-layer kernels: each times one layer's public functions on inputs
//! taken from the workload's own traces, with the program's probes off.
//!
//! The inputs are a canned request sequence: the first references of
//! each trace, cores interleaved, virtual pages mapped to device frames
//! in first-touch order. Read-only workloads have no writes, so the
//! write-path kernels (device writes, disturbance draws, DIN encoding)
//! synthesize one write per request: the request's line with 48 toggled
//! bits, the payload shape the hierarchy front end uses for
//! write-backs.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sdpcm_cachesim::cache::AccessKind as CacheAccess;
use sdpcm_cachesim::hierarchy::{CoreCaches, HierarchyConfig};
use sdpcm_core::hiersim::HierarchyParams;
use sdpcm_core::{ExperimentParams, HierTrace, Scheme};
use sdpcm_engine::rng::RngStream;
use sdpcm_engine::{Cycle, SimRng};
use sdpcm_memctrl::{Access, AccessKind, CtrlConfig, MemoryController, ReqId};
use sdpcm_osalloc::NmRatio;
use sdpcm_pcm::geometry::{LineAddr, MemGeometry, PageId};
use sdpcm_pcm::line::{DiffMask, LineBuf};
use sdpcm_pcm::store::{DeviceStore, InitContent};
use sdpcm_pcm::wear::WriteClass;
use sdpcm_trace::addr::{AddressStream, LINES_PER_PAGE};
use sdpcm_trace::{BenchKind, RefTrace, ToggleMask, Workload};
use sdpcm_wd::scaling::ArraySpacing;
use sdpcm_wd::{DinCodec, DinFlags, DisturbanceModel, WdInjector};

use crate::stats::Summary;

/// Requests in a canned sequence.
pub const CANNED_REQUESTS: usize = 20_000;
/// Draws timed by the RNG kernel per repetition.
const RNG_DRAWS: u64 = 1 << 20;
/// A kernel repeats at least this often…
const MIN_REPS: usize = 5;
/// …and until this much time has passed…
const MIN_TIME: Duration = Duration::from_millis(250);
/// …but no more often than this.
const MAX_REPS: usize = 500;
/// ECP entries per line, as in `ExperimentParams::quick_test`.
const ECP_ENTRIES: usize = 6;

/// One canned request.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    /// Device line.
    pub addr: LineAddr,
    /// A virtual line unique to the request's trace and core, for the
    /// cache kernel.
    pub vline: u64,
    /// Cycles since the previous request.
    pub gap: u64,
    /// For writes: the toggle mask applied to the line.
    pub write: Option<ToggleMask>,
}

/// A canned request sequence and a device sized to hold it.
#[derive(Debug, Clone)]
pub struct Canned {
    /// Device geometry covering every mapped frame.
    pub geometry: MemGeometry,
    /// The requests, in issue order.
    pub reqs: Vec<Req>,
}

/// Maps `(stream, core, virtual page)` to device frames in first-touch
/// order.
#[derive(Default)]
struct Frames(HashMap<(usize, usize, u64), u64>);

impl Frames {
    fn frame(&mut self, stream: usize, core: usize, vpage: u64) -> u64 {
        let next = self.0.len() as u64;
        *self.0.entry((stream, core, vpage)).or_insert(next)
    }

    fn geometry(&self) -> MemGeometry {
        let banks = u64::from(MemGeometry::small(1).banks());
        let rows = (self.0.len() as u64).div_ceil(banks).max(64);
        MemGeometry::small(u32::try_from(rows).expect("canned sequences fit a small device"))
    }
}

fn unique_vline(stream: usize, core: usize, vline: u64) -> u64 {
    (((stream * 64 + core) as u64) << 40) | vline
}

fn line_addr(geometry: &MemGeometry, frame: u64, slot: u8) -> LineAddr {
    let (bank, row) = geometry.page_to_bank_row(PageId(frame));
    LineAddr { bank, row, slot }
}

impl Canned {
    /// The first references of each post-cache trace, cores
    /// interleaved, about `limit` in total.
    pub fn from_ref(traces: &[Arc<RefTrace>], limit: usize) -> Canned {
        let mut frames = Frames::default();
        let mut raw = Vec::new();
        let per_trace = limit / traces.len().max(1);
        for (ti, trace) in traces.iter().enumerate() {
            let cores = trace.per_core.len().max(1);
            for i in 0..per_trace / cores {
                for (core, refs) in trace.per_core.iter().enumerate() {
                    let Some(r) = refs.get(i) else { continue };
                    let frame = frames.frame(ti, core, r.vpage);
                    let vline =
                        unique_vline(ti, core, r.vpage * LINES_PER_PAGE + u64::from(r.slot));
                    raw.push((frame, r.slot, vline, r.gap, r.is_write.then_some(r.mask)));
                }
            }
        }
        Canned::assemble(&frames, raw)
    }

    /// The first PCM-touching events of each hierarchy trace, cores
    /// interleaved: each event's write-backs, then its fill.
    pub fn from_hier(traces: &[(BenchKind, Arc<HierTrace>)], limit: usize) -> Canned {
        let mut frames = Frames::default();
        let mut raw = Vec::new();
        let per_trace = limit / traces.len().max(1);
        for (ti, (_, trace)) in traces.iter().enumerate() {
            let start = raw.len();
            let longest = trace
                .per_core
                .iter()
                .map(|c| c.events.len())
                .max()
                .unwrap_or(0);
            'events: for i in 0..longest {
                for (core, ct) in trace.per_core.iter().enumerate() {
                    let Some(ev) = ct.events.get(i) else { continue };
                    let gap = ev.gap + ev.latency;
                    let lines = ev
                        .writebacks
                        .iter()
                        .map(|&(vline, mask)| (vline, Some(mask)))
                        .chain(ev.fill.map(|vline| (vline, None)));
                    for (vline, write) in lines {
                        let frame = frames.frame(ti, core, vline / LINES_PER_PAGE);
                        let slot = (vline % LINES_PER_PAGE) as u8;
                        raw.push((frame, slot, unique_vline(ti, core, vline), gap, write));
                    }
                    if raw.len() - start >= per_trace {
                        break 'events;
                    }
                }
            }
        }
        Canned::assemble(&frames, raw)
    }

    fn assemble(frames: &Frames, raw: Vec<(u64, u8, u64, u64, Option<ToggleMask>)>) -> Canned {
        let geometry = frames.geometry();
        let reqs = raw
            .into_iter()
            .map(|(frame, slot, vline, gap, write)| Req {
                addr: line_addr(&geometry, frame, slot),
                vline,
                gap,
                write,
            })
            .collect();
        Canned { geometry, reqs }
    }

    /// The write-path inputs: every write with its mask, or, for a
    /// read-only sequence, one synthesized 48-bit-toggle write per
    /// request.
    pub fn writes(&self, seed: u64) -> Vec<(LineAddr, ToggleMask)> {
        let writes: Vec<_> = self
            .reqs
            .iter()
            .filter_map(|r| r.write.map(|m| (r.addr, m)))
            .collect();
        if !writes.is_empty() {
            return writes;
        }
        let mut rng = SimRng::from_seed_label(seed, "perfbench-synthetic-writes");
        self.reqs
            .iter()
            .map(|r| {
                let mut mask = ToggleMask::default();
                for _ in 0..48 {
                    let b = rng.index(512);
                    mask[b / 64] ^= 1 << (b % 64);
                }
                (r.addr, mask)
            })
            .collect()
    }
}

/// One prepared device write: the line before and after, the
/// differential mask, and the bit-line neighbours' contents at the time.
#[derive(Debug, Clone)]
pub struct WriteInput {
    /// Target line.
    pub addr: LineAddr,
    /// Raw contents before the write.
    pub old: LineBuf,
    /// Raw contents after the write.
    pub new: LineBuf,
    /// `old → new` programming mask.
    pub diff: DiffMask,
    /// Bit-line neighbours (row above, row below), where they exist.
    pub neighbors: [Option<LineBuf>; 2],
}

fn fresh_store(geometry: MemGeometry, seed: u64) -> DeviceStore {
    DeviceStore::with_init(geometry, ECP_ENTRIES, InitContent::Pseudorandom(seed))
}

/// Plays the writes on a scratch store once, recording each write's
/// inputs so the kernels can replay them without recomputing.
pub fn prepare_writes(canned: &Canned, seed: u64) -> Vec<WriteInput> {
    let mut store = fresh_store(canned.geometry, seed);
    canned
        .writes(seed)
        .into_iter()
        .map(|(addr, mask)| {
            let old = store.raw_line(addr);
            let mut words = *old.words();
            for (w, m) in words.iter_mut().zip(mask) {
                *w ^= m;
            }
            let new = LineBuf::from_words(words);
            let diff = DiffMask::between(&old, &new);
            let neighbors = canned
                .geometry
                .bitline_neighbors(addr)
                .map(|n| n.map(|a| store.raw_line(a)));
            store.apply_write(addr, &diff, WriteClass::Normal);
            WriteInput {
                addr,
                old,
                new,
                diff,
                neighbors,
            }
        })
        .collect()
}

/// Median host nanoseconds per operation over repetitions of `rep`,
/// which returns the seconds its timed part took for `ops` operations.
pub fn per_op_ns(ops: usize, mut rep: impl FnMut() -> f64) -> f64 {
    let ops = ops.max(1) as f64;
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_REPS || (started.elapsed() < MIN_TIME && samples.len() < MAX_REPS) {
        samples.push(rep() * 1e9 / ops);
    }
    Summary::of(&samples).median
}

fn timed(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

/// Kernel timings, ns per operation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelTimes {
    /// `CoreCaches::access` on the Table 2 hierarchy.
    pub cachesim_access_ns: f64,
    /// `MemoryController::submit` + `advance_into` per request.
    pub memctrl_req_ns: f64,
    /// `DeviceStore::apply_write` per write.
    pub pcm_write_ns: f64,
    /// `DeviceStore::read_line` per read.
    pub pcm_read_ns: f64,
    /// `WdInjector::event` + word-line and bit-line draws per write.
    pub wd_event_ns: f64,
    /// `DinCodec::encode` per write.
    pub wd_din_ns: f64,
    /// `RngStream::at` per draw.
    pub engine_rng_ns: f64,
}

/// Runs every kernel on `canned` (and `cache_input` for the cache
/// kernel).
///
/// # Errors
///
/// Returns the controller's error if the controller kernel fails.
pub fn run_all(
    canned: &Canned,
    cache_input: &[(u64, bool)],
    seed: u64,
) -> Result<KernelTimes, String> {
    let writes = prepare_writes(canned, seed);
    let mut ctrl_error = None;
    let memctrl_req_ns = per_op_ns(canned.reqs.len(), || match drive_controller(canned, seed) {
        Ok(s) => s,
        Err(e) => {
            ctrl_error.get_or_insert(e);
            0.0
        }
    });
    if let Some(e) = ctrl_error {
        return Err(e);
    }
    Ok(KernelTimes {
        cachesim_access_ns: cache_kernel(cache_input),
        memctrl_req_ns,
        pcm_write_ns: per_op_ns(writes.len(), || {
            let mut store = fresh_store(canned.geometry, seed);
            timed(|| {
                for w in &writes {
                    black_box(store.apply_write(w.addr, &w.diff, WriteClass::Normal));
                }
            })
        }),
        pcm_read_ns: {
            let mut store = fresh_store(canned.geometry, seed);
            for w in &writes {
                store.apply_write(w.addr, &w.diff, WriteClass::Normal);
            }
            per_op_ns(canned.reqs.len(), || {
                timed(|| {
                    for r in &canned.reqs {
                        black_box(store.read_line(r.addr));
                    }
                })
            })
        },
        wd_event_ns: wd_kernel(&writes, seed),
        wd_din_ns: {
            let codec = DinCodec::paper_default();
            per_op_ns(writes.len(), || {
                timed(|| {
                    for w in &writes {
                        black_box(codec.encode(&w.new, &w.old, DinFlags::default()));
                    }
                })
            })
        },
        engine_rng_ns: {
            let stream = RngStream::from_seed_label(seed, "perfbench-rng");
            per_op_ns(RNG_DRAWS as usize, || {
                timed(|| {
                    let mut acc = 0u64;
                    for i in 0..RNG_DRAWS {
                        acc = acc.wrapping_add(stream.at(black_box(i)));
                    }
                    black_box(acc);
                })
            })
        },
    })
}

fn cache_kernel(input: &[(u64, bool)]) -> f64 {
    per_op_ns(input.len(), || {
        let mut caches = CoreCaches::new(HierarchyConfig::table2());
        timed(|| {
            for &(line, store) in input {
                let kind = if store {
                    CacheAccess::Write
                } else {
                    CacheAccess::Read
                };
                black_box(caches.access(line, kind));
            }
        })
    })
}

fn wd_kernel(writes: &[WriteInput], seed: u64) -> f64 {
    let injector = WdInjector::new(
        &DisturbanceModel::calibrated(),
        ArraySpacing::super_dense(),
        SimRng::from_seed_label(seed, "perfbench-wd"),
    );
    let mut victims = Vec::new();
    per_op_ns(writes.len(), || {
        timed(|| {
            for (epoch, w) in writes.iter().enumerate() {
                let ev = injector.event(w.addr.stream_key(), epoch as u64);
                injector.draw_wordline_into(&ev, &w.new, &w.diff, &mut victims);
                black_box(victims.len());
                for (side, neighbor) in w.neighbors.iter().enumerate() {
                    if let Some(line) = neighbor {
                        injector.draw_bitline_into(&ev, side, &w.diff, line, &mut victims);
                        black_box(victims.len());
                    }
                }
            }
        })
    })
}

/// Issues the canned sequence into a fresh LazyC+PreRead controller
/// from one blocking issuer: reads wait for their completion, writes
/// wait only for queue space. Returns the seconds the issue loop and
/// the final drain took.
///
/// # Errors
///
/// Returns the controller's error, or a stall if the controller stops
/// scheduling events while a request is outstanding.
pub fn drive_controller(canned: &Canned, seed: u64) -> Result<f64, String> {
    let cfg = CtrlConfig::table2(Scheme::lazyc_preread().ctrl);
    let mut ctrl = MemoryController::try_new(
        cfg,
        canned.geometry,
        SimRng::from_seed_label(seed, "perfbench-ctrl"),
    )
    .map_err(|e| e.to_string())?;
    let stall = || "controller kernel stalled".to_owned();
    let started = Instant::now();
    let mut out = Vec::new();
    let mut now = Cycle::ZERO;
    for (i, r) in canned.reqs.iter().enumerate() {
        now += Cycle(r.gap);
        ctrl.advance_into(now, &mut out)
            .map_err(|e| e.to_string())?;
        let kind = match r.write {
            Some(mask) => {
                while !ctrl.can_accept_write(r.addr) {
                    now = now.max(ctrl.next_event().ok_or_else(stall)?);
                    ctrl.advance_into(now, &mut out)
                        .map_err(|e| e.to_string())?;
                }
                let mut words = *ctrl.latest_architectural(r.addr).words();
                for (w, m) in words.iter_mut().zip(mask) {
                    *w ^= m;
                }
                AccessKind::Write(LineBuf::from_words(words))
            }
            None => AccessKind::Read,
        };
        let id = ReqId(i as u64);
        ctrl.submit(
            Access {
                id,
                addr: r.addr,
                kind,
                ratio: NmRatio::one_one(),
                core: 0,
                arrive: now,
            },
            now,
        )
        .map_err(|e| e.to_string())?;
        if r.write.is_none() {
            loop {
                now = now.max(ctrl.next_event().ok_or_else(stall)?);
                ctrl.advance_into(now, &mut out)
                    .map_err(|e| e.to_string())?;
                if out.iter().any(|c| c.id == id) {
                    break;
                }
            }
        }
    }
    ctrl.drain_all(now);
    while let Some(t) = ctrl.next_event() {
        ctrl.advance_into(t, &mut out).map_err(|e| e.to_string())?;
        ctrl.drain_all(t);
    }
    Ok(started.elapsed().as_secs_f64())
}

/// The cache kernel's input for a post-cache workload: the canned
/// requests' lines.
pub fn cache_input_from(canned: &Canned) -> Vec<(u64, bool)> {
    canned
        .reqs
        .iter()
        .map(|r| (r.vline, r.write.is_some()))
        .collect()
}

/// `HierTrace::capture` of `benches` through the Table 2 hierarchy at
/// `accesses_per_core`: seconds, fills and write-backs.
pub fn hier_capture(
    benches: &[BenchKind],
    params: &ExperimentParams,
    accesses_per_core: u64,
) -> (f64, u64, u64) {
    let hp = HierarchyParams {
        accesses_per_core,
        ..HierarchyParams::table2()
    };
    let (mut secs, mut fills, mut writebacks) = (0.0, 0, 0);
    for &bench in benches {
        let started = Instant::now();
        let trace = HierTrace::capture(bench, params, &hp);
        secs += started.elapsed().as_secs_f64();
        for core in &trace.per_core {
            for ev in &core.events {
                fills += u64::from(ev.fill.is_some());
                writebacks += ev.writebacks.len() as u64;
            }
        }
    }
    (secs, fills, writebacks)
}

/// Times `AddressStream::next_line` on one stream per core of each of
/// `benches`, with each core's access pattern and working set, for
/// `hp.accesses_per_core` lines: the trace layer's share of a hierarchy
/// capture. The streams are derived from the seed under the benchmark's
/// own labels, so their lines follow the capture's distribution but are
/// not the capture's lines (a `HierTrace` keeps only the accesses that
/// reach PCM). Returns the seconds and, as the cache kernel's input,
/// core 0's lines of each benchmark, each a store with the hierarchy's
/// store fraction.
pub fn address_generation(
    benches: &[BenchKind],
    params: &ExperimentParams,
    hp: &HierarchyParams,
) -> (f64, Vec<(u64, bool)>) {
    let mut rng = SimRng::from_seed_label(params.seed, "perfbench-address-generation");
    let mut secs = 0.0;
    let mut core0 = Vec::new();
    for (bi, &bench) in benches.iter().enumerate() {
        for (core, profile) in Workload::homogeneous(bench).profiles().iter().enumerate() {
            let mut stream =
                AddressStream::new(profile.pattern, profile.ws_pages, rng.derive("addr"));
            let mut lines = Vec::with_capacity(hp.accesses_per_core as usize);
            secs += timed(|| {
                for _ in 0..hp.accesses_per_core {
                    let (vpage, slot) = stream.next_line();
                    lines.push(vpage * LINES_PER_PAGE + u64::from(slot));
                }
            });
            if core == 0 {
                core0.extend(
                    lines
                        .into_iter()
                        .map(|l| (unique_vline(bi, 0, l), rng.chance(hp.store_fraction))),
                );
            }
        }
    }
    (secs, core0)
}
