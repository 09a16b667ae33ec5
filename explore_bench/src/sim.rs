//! The Table 1 workload: the seeded FIR on SPAM, restarted at its
//! entry every time it halts, on XSIM and on the levelized and event
//! netlists of the same machine. Compilation, synthesis and elaboration
//! are set-up; the timed part is simulation only, so exploration and
//! HGEN changes should not move these numbers.

use crate::explore::{assemble, drain_edges, halt_probe};
use crate::inputs::{self, Case};
use crate::measure::{allowed_cpus, median, peak_rss_mb, pin_to, quantile, Metrics};
use crate::spans::Tracer;
use crate::{Outcome, Run, SPAM_PATH};
use bitv::BitVector;
use gensim::{CoreKind, StopReason, Xsim, XsimOptions};
use hgen::HgenOptions;
use isdl::rtl::StorageId;
use isdl::Machine;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use vlog::{AnySim, SimBackend};

/// Host time one sample of back-to-back passes lasts.
const SAMPLE: Duration = Duration::from_millis(50);

/// A simulator of the Table 1 rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// XSIM with default options (bytecode core, translated tier).
    Xsim,
    /// The HGEN netlist on a netlist backend.
    Netlist(SimBackend),
}

impl Tier {
    /// The Table 1 row name.
    fn row(self) -> &'static str {
        match self {
            Self::Xsim => "xsim_cycles_per_s",
            Self::Netlist(SimBackend::Levelized) => "levelized_cycles_per_s",
            Self::Netlist(SimBackend::Event) => "event_cycles_per_s",
        }
    }

    /// The per-layer metric of its host time per simulated cycle.
    fn layer(self) -> &'static str {
        match self {
            Self::Xsim => "gensim.ns_per_cycle",
            Self::Netlist(SimBackend::Levelized) => "vlog.levelized.ns_per_cycle",
            Self::Netlist(SimBackend::Event) => "vlog.event.ns_per_cycle",
        }
    }

    /// Consecutive passes averaged into one latency value, so that each
    /// value covers about 15–20 ms of host time on every row. The host
    /// stalls a thread for a few ms now and then. A 20 µs XSIM pass
    /// that such a stall hits reads several times too slow, and
    /// whether stalls hit more or less than 1% of passes decided the
    /// p99: it jumped between 0.028 and 0.09 ms from run to run, also
    /// in batches of 64. 1024 passes take about 20 ms, as long as one
    /// netlist pass, so a stall weighs the same on every row.
    fn batch(self) -> usize {
        match self {
            Self::Xsim => 1024,
            Self::Netlist(_) => 1,
        }
    }

    /// The span recorded around each traced sample.
    fn run_span(self) -> &'static str {
        match self {
            Self::Xsim => "gensim.run",
            Self::Netlist(SimBackend::Levelized) => "vlog.levelized.clock",
            Self::Netlist(SimBackend::Event) => "vlog.event.clock",
        }
    }
}

/// A simulator with the FIR loaded, restartable at the program entry.
enum Loaded<'m> {
    Xsim { sim: Box<Xsim<'m>>, entry: u64 },
    Netlist { sim: AnySim, pc: String, pc_width: u32, entry: u64, edges: u64 },
}

/// One simulator under test plus what checking it needs.
struct Bench<'m> {
    loaded: Loaded<'m>,
    dm: StorageId,
    dm_name: String,
    dm_width: u32,
    case: Case,
}

impl Bench<'_> {
    /// Untimed: clears the output cells and re-enters the program.
    fn prepare(&mut self) -> Result<(), String> {
        let zero = BitVector::zero(self.dm_width);
        for &a in self.case.reference.outputs() {
            match &mut self.loaded {
                Loaded::Xsim { sim, .. } => sim.state_mut().poke(self.dm, a, zero.clone()),
                Loaded::Netlist { sim, .. } => {
                    sim.poke_memory(&self.dm_name, a, zero.clone()).map_err(|e| e.to_string())?;
                }
            }
        }
        Ok(())
    }

    /// One pass from the entry to the halt; returns simulated cycles.
    fn pass(&mut self) -> Result<u64, String> {
        match &mut self.loaded {
            Loaded::Xsim { sim, entry } => {
                let before = sim.stats().cycles;
                sim.restart_at(*entry);
                match sim.run(1_000_000) {
                    StopReason::Halted => Ok(sim.stats().cycles - before),
                    other => Err(format!("XSIM stopped with {other}")),
                }
            }
            Loaded::Netlist { sim, pc, pc_width, entry, edges } => {
                sim.poke(pc, BitVector::from_u64(*entry, *pc_width)).map_err(|e| e.to_string())?;
                sim.clock(*edges).map_err(|e| e.to_string())?;
                Ok(*edges)
            }
        }
    }

    /// Untimed: the output cells must hold the reference values.
    fn check(&self) -> Result<(), String> {
        match &self.loaded {
            Loaded::Xsim { sim, .. } => {
                self.case.reference.check_outputs(|a| sim.state().read_u64(self.dm, a))
            }
            Loaded::Netlist { sim, .. } => self.case.reference.check_outputs(|a| {
                sim.peek_memory(&self.dm_name, a).map_or(u64::MAX, |v| v.to_u64_lossy())
            }),
        }
    }

    /// Simulated cycles of one pass.
    fn pass_cycles(&self, xsim_cycles: u64) -> u64 {
        match &self.loaded {
            Loaded::Xsim { .. } => xsim_cycles,
            Loaded::Netlist { edges, .. } => *edges,
        }
    }
}

/// What the set-up produced: XSIM, levelized and event benches, in the
/// order samples rotate through them, and what the traced run reports
/// about them.
struct Built<'m> {
    benches: Vec<(Tier, Bench<'m>)>,
    xsim_cycles: u64,
    halt_edges: u64,
    hw: hgen::HgenResult,
}

/// Reads the machine and generates the FIR (`isdl.load`).
fn front_end(seed: u64, t: &mut Tracer) -> Result<(Machine, Case), String> {
    let machine = t.time("isdl.load", || -> Result<Machine, String> {
        let src =
            std::fs::read_to_string(SPAM_PATH).map_err(|e| format!("reading {SPAM_PATH}: {e}"))?;
        isdl::load(&src).map_err(|e| format!("{SPAM_PATH}: {e}"))
    })?;
    Ok((machine, inputs::fir(seed)))
}

/// Builds the three simulators for `machine`: compile, assemble and
/// generate XSIM; synthesize once, then elaborate each netlist backend
/// and run the halt probe that fixes its pass length. Both backends
/// must halt after the same number of edges.
fn back_end<'m>(machine: &'m Machine, case: &Case, t: &mut Tracer) -> Result<Built<'m>, String> {
    let dm = inputs::data_memory(machine)?;
    let (dm_name, dm_width) = (machine.storage(dm).name.clone(), machine.storage(dm).width);
    let bench =
        |loaded| Bench { loaded, dm, dm_name: dm_name.clone(), dm_width, case: case.clone() };
    let compiled = t
        .time("archex.compile", || archex::compile(machine, &case.kernel))
        .map_err(|e| e.to_string())?;
    let program = t
        .time("xasm.assemble", || xasm::Assembler::new(machine).assemble(&compiled.asm))
        .map_err(|e| e.to_string())?;
    let mut sim =
        t.time("gensim.generate", || Xsim::generate(machine)).map_err(|e| e.to_string())?;
    sim.load_program(&program);
    let xsim_cycles = t.time("gensim.reference", || inputs::run_reference(machine, case))?.cycles;
    let mut benches =
        vec![(Tier::Xsim, bench(Loaded::Xsim { sim: Box::new(sim), entry: program.entry }))];

    let hw = t
        .time("hgen.synthesize", || hgen::synthesize(machine, HgenOptions::default()))
        .map_err(|e| e.to_string())?;
    let pc = machine.storage(machine.pc.ok_or("machine has no PC")?);
    let mut halt_edges = None;
    for backend in [SimBackend::Levelized, SimBackend::Event] {
        let elaborate = match backend {
            SimBackend::Levelized => "vlog.levelized.elaborate",
            SimBackend::Event => "vlog.event.elaborate",
        };
        let sim = t.time(elaborate, || hw.simulator(backend)).map_err(|e| e.to_string())?;
        let probe = t.time("vlog.halt_probe", || halt_probe(machine, case, sim))?;
        if *halt_edges.get_or_insert(probe.halt_edges) != probe.halt_edges {
            return Err(format!(
                "{backend} netlist halts after {} edges, the levelized one after {halt_edges:?}",
                probe.halt_edges
            ));
        }
        let loaded = Loaded::Netlist {
            sim: probe.sim,
            pc: pc.name.clone(),
            pc_width: pc.width,
            entry: probe.program.entry,
            edges: probe.halt_edges + drain_edges(machine),
        };
        benches.push((Tier::Netlist(backend), bench(loaded)));
    }
    let halt_edges = halt_edges.expect("two backends probed");
    Ok(Built { benches, xsim_cycles, halt_edges, hw })
}

/// Stretch of a run over which [`Loop::p50`] takes one median per CPU.
const WINDOW: Duration = Duration::from_secs(5);

/// One latency value: host ms per pass, averaged over [`Tier::batch`]
/// consecutive passes, with the [`WINDOW`] of the run and the position
/// in [`Measured::cpus`] of the CPU it was taken on.
struct Pass {
    window: usize,
    cpu: usize,
    ms: f64,
}

/// Per-pass and per-sample measurements of one simulator.
struct Loop {
    /// Samples taken.
    samples: usize,
    /// Simulated cycles over all samples.
    cycles: u64,
    /// Host time of those cycles.
    busy: Duration,
    /// Every latency value of the run: batched, a few thousand.
    passes: Vec<Pass>,
}

impl Loop {
    /// Host ns per simulated cycle over the whole run.
    fn ns_per_cycle(&self) -> f64 {
        self.busy.as_secs_f64() * 1e9 / self.cycles as f64
    }

    /// Median pass time, taken per CPU and per [`WINDOW`] of the run,
    /// then averaged. The host switches each CPU between two speeds
    /// about a third apart, for seconds at a time, so pass times form
    /// two peaks. A median over the whole run lands on whichever peak
    /// holds a few more passes and flips from run to run; averaged over
    /// the stretches, it moves with the share of time at each speed.
    fn p50(&self) -> f64 {
        let mut groups: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
        for p in &self.passes {
            groups.entry((p.window, p.cpu)).or_default().push(p.ms);
        }
        groups.values().map(|v| median(v)).sum::<f64>() / groups.len() as f64
    }

    /// 99th percentile of pass time over the whole run. It lies in the
    /// tail of the slower speed, which does not flip.
    fn p99(&self) -> f64 {
        quantile(&self.passes.iter().map(|p| p.ms).collect::<Vec<_>>(), 0.99)
    }
}

/// What one timed loop over the simulators measured.
struct Measured {
    /// One loop per bench, in bench order.
    loops: Vec<Loop>,
    /// The CPUs the rounds of samples rotated through.
    cpus: Vec<usize>,
    /// Peak resident memory after the first round of samples, MiB: read
    /// at a fixed point so that it does not depend on how many passes a
    /// run fits in.
    rss_mb: f64,
    attempted: usize,
    errors: Vec<String>,
}

/// Runs passes for `budget`, rotating 50 ms samples ([`SAMPLE`] of
/// simulation time) through `benches`, so that every simulator sees the
/// same host conditions. Each round of samples (one per bench) runs
/// pinned to the next of the CPUs this process may use, so every
/// simulator is measured on all of them alike: a shared host can run
/// one CPU a third faster than another for seconds at a time, and an
/// unpinned thread measures whichever CPU it happens to sit on.
/// Untraced, every pass is timed and checked on its own; traced, each
/// sample is one span of back-to-back passes, checked at its end.
/// `between` runs, untimed, after every sample.
fn measure(
    benches: &mut [(Tier, Bench<'_>)],
    budget: Duration,
    mut t: Option<&mut Tracer>,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Measured, String> {
    let cpus = allowed_cpus()?;
    let mut out = Measured {
        loops: benches
            .iter()
            .map(|_| Loop { samples: 0, cycles: 0, busy: Duration::ZERO, passes: Vec::new() })
            .collect(),
        cpus,
        rss_mb: 0.0,
        attempted: 0,
        errors: Vec::new(),
    };
    let started = Instant::now();
    let windows = ((budget.as_secs_f64() / WINDOW.as_secs_f64()) as usize).max(1);
    let mut sample = 0;
    while sample < benches.len() || started.elapsed() < budget {
        let window = (started.elapsed().as_secs_f64() / WINDOW.as_secs_f64()) as usize;
        let window = window.min(windows - 1);
        let (i, cpu) = (sample % benches.len(), sample / benches.len() % out.cpus.len());
        if i == 0 {
            pin_to(out.cpus[cpu])?;
        }
        let (tier, bench) = &mut benches[i];
        let l = &mut out.loops[i];
        let (mut cycles, mut busy) = (0u64, Duration::ZERO);
        let outcome = if let Some(t) = t.as_deref_mut() {
            t.set_request(sample as u64);
            bench.prepare().and_then(|()| {
                let t0 = Instant::now();
                let r = t.time(tier.run_span(), || -> Result<(), String> {
                    while t0.elapsed() < SAMPLE {
                        cycles += bench.pass()?;
                    }
                    Ok(())
                });
                busy = t0.elapsed();
                out.attempted += 1;
                r.and_then(|()| bench.check())
            })
        } else {
            let (mut batch_ms, mut in_batch) = (0.0, 0);
            loop {
                if busy >= SAMPLE && in_batch == 0 {
                    break Ok(());
                }
                if let Err(e) = bench.prepare() {
                    break Err(e);
                }
                let t0 = Instant::now();
                let pass = bench.pass();
                let dt = t0.elapsed();
                out.attempted += 1;
                match pass.and_then(|c| bench.check().map(|()| c)) {
                    Ok(c) => {
                        cycles += c;
                        busy += dt;
                        batch_ms += dt.as_secs_f64() * 1e3;
                        in_batch += 1;
                        if in_batch == tier.batch() {
                            l.passes.push(Pass { window, cpu, ms: batch_ms / in_batch as f64 });
                            (batch_ms, in_batch) = (0.0, 0);
                        }
                    }
                    Err(e) => break Err(e),
                }
            }
        };
        if let Err(e) = outcome {
            out.errors.push(format!("{}: {e}", tier.row()));
            break;
        }
        l.samples += 1;
        l.cycles += cycles;
        l.busy += busy;
        sample += 1;
        if sample == benches.len() {
            out.rss_mb = peak_rss_mb()?;
        }
        between()?;
    }
    Ok(out)
}

/// The workload run.
///
/// Set-up repeats until [`crate::setup_done`]; the last one is kept.
pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut t = Tracer::new();
    loop {
        t.open("setup");
        let (machine, case) = front_end(run.seed, &mut t)?;
        let built = back_end(&machine, &case, &mut t);
        t.close();
        let built = built?;
        if crate::setup_done(&t) {
            return if run.trace {
                traced(run, &machine, built, t)
            } else {
                timed(run, built, &mut t)
            };
        }
    }
}

/// The geometric mean of `values`: the end-to-end figure over the three
/// Table 1 rows, so that a relative change of any one row moves it by
/// the same share whatever that row's scale.
fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The timed run, with further set-ups (built and dropped) between
/// samples while [`crate::setup_due`].
fn timed(run: &Run, built: Built<'_>, t: &mut Tracer) -> Result<Outcome, String> {
    let Built { mut benches, xsim_cycles, .. } = built;
    let started = Instant::now();
    let mut more_setups = || -> Result<(), String> {
        while crate::setup_due(t, started.elapsed()) {
            t.open("setup");
            let (machine, case) = front_end(run.seed, t)?;
            let built = back_end(&machine, &case, t);
            t.close();
            built?;
        }
        Ok(())
    };
    let budget = Duration::from_secs(run.seconds);
    let m = measure(&mut benches, budget, None, &mut more_setups)?;
    let setup_s = crate::span_median_us(t, "setup") / 1e6;
    let case = &benches[0].1.case;
    let mut report = vec![
        format!(
            "{} on SPAM: XSIM pass {} cycles, netlist pass {} edges",
            case.kernel.name,
            benches[0].1.pass_cycles(xsim_cycles),
            benches[1].1.pass_cycles(xsim_cycles)
        ),
        format!("rounds of samples rotated through CPUs {:?}", m.cpus),
    ];
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    for ((tier, _), l) in benches.iter().zip(&m.loops) {
        let rate = 1e9 / l.ns_per_cycle();
        let (p50, p99) = (l.p50(), l.p99());
        report.push(format!(
            "{:<22} {rate:>10.0} sim cycles / host s; pass p50 {p50:.4} ms, p99 {p99:.4} ms \
             (n={} x {} passes)",
            tier.row(),
            l.passes.len(),
            tier.batch()
        ));
        rates.push(rate);
        p50s.push(p50);
        p99s.push(p99);
    }
    let (rate, p50, p99) = (geomean(&rates), geomean(&p50s), geomean(&p99s));
    let failed = m.errors.len();
    report.extend([
        format!("rate_per_s             {rate:.1} (geometric mean of the three rows)"),
        format!("latency_p50_ms         {p50:.4} ms (geometric mean)"),
        format!("latency_p99_ms         {p99:.4} ms (geometric mean)"),
        format!("setup_s                {setup_s:.6} s"),
        format!("peak_rss_mb            {:.1} MiB after the first round of samples", m.rss_mb),
        format!(
            "error_ratio            {} ({failed}/{})",
            failed as f64 / m.attempted.max(1) as f64,
            m.attempted
        ),
    ]);
    report.extend(m.errors.iter().map(|e| format!("FAILED {e}")));
    let mut metrics = Metrics::default();
    metrics.put("rate_per_s", rate, "1/s");
    metrics.put("latency_p50_ms", p50, "ms");
    metrics.put("latency_p99_ms", p99, "ms");
    metrics.put("setup_s", setup_s, "s");
    metrics.put("peak_rss_mb", m.rss_mb, "MiB");
    Ok(Outcome { attempted: m.attempted, failed, metrics, report })
}

/// The per-layer run: two thirds of the time rotate samples through the
/// three simulators, the rest measures XSIM's interpreter and tree-core
/// tiers.
fn traced(
    run: &Run,
    machine: &Machine,
    built: Built<'_>,
    mut t: Tracer,
) -> Result<Outcome, String> {
    let Built { mut benches, xsim_cycles, halt_edges, hw } = built;
    let budget = Duration::from_secs(run.seconds);
    let m = measure(&mut benches, budget * 2 / 3, Some(&mut t), &mut || Ok(()))?;
    let mut errors = m.errors;
    let mut attempted = m.attempted;
    let ns: Vec<f64> = m.loops.iter().map(Loop::ns_per_cycle).collect();
    let case = benches[0].1.case.clone();
    let blocks = match &benches[0].1.loaded {
        Loaded::Xsim { sim, .. } => sim.translate_stats().blocks as f64,
        Loaded::Netlist { .. } => 0.0,
    };
    let mut other_tiers = Vec::new();
    for options in [
        XsimOptions { translate: false, ..XsimOptions::default() },
        XsimOptions { core: CoreKind::Tree, ..XsimOptions::default() },
    ] {
        let program = assemble(machine, &case.kernel)?;
        let mut sim = Xsim::generate_with(machine, options).map_err(|e| e.to_string())?;
        sim.load_program(&program);
        let dm = benches[0].1.dm;
        let bench = Bench {
            loaded: Loaded::Xsim { sim: Box::new(sim), entry: program.entry },
            dm,
            dm_name: benches[0].1.dm_name.clone(),
            dm_width: benches[0].1.dm_width,
            case: case.clone(),
        };
        let m = measure(&mut [(Tier::Xsim, bench)], budget / 6, None, &mut || Ok(()))?;
        other_tiers.push(m.loops[0].ns_per_cycle());
        attempted += m.attempted;
        errors.extend(m.errors);
    }

    let mut metrics = Metrics::default();
    metrics.put("isdl.load_us", crate::span_median_us(&t, "isdl.load"), "us");
    let mut rows: Vec<(&str, f64)> = benches.iter().map(|(tier, _)| tier.layer()).zip(ns).collect();
    rows.push(("gensim.interp.ns_per_cycle", other_tiers[0]));
    rows.push(("gensim.tree.ns_per_cycle", other_tiers[1]));
    for &(name, ns) in &rows {
        metrics.put(name, ns, "ns");
    }
    metrics.put("gensim.translate.blocks", blocks, "count");
    for (name, span) in [
        ("vlog.levelized.elaborate_us", "vlog.levelized.elaborate"),
        ("vlog.event.elaborate_us", "vlog.event.elaborate"),
    ] {
        metrics.put(name, crate::span_median_us(&t, span), "us");
    }
    metrics.put("gensim.sim_cycles", xsim_cycles as f64, "cycles");
    metrics.put("hgen.units_saved", hw.stats.units_saved as f64, "count");
    metrics.put("hgen.lines_of_verilog", hw.lines_of_verilog as f64, "lines");
    let cycle_error = 100.0 * halt_edges.abs_diff(xsim_cycles) as f64 / xsim_cycles as f64;
    metrics.put("cycle_error_pct", cycle_error, "%");
    let failed = errors.len();
    metrics.put("error_ratio", failed as f64 / attempted.max(1) as f64, "ratio");

    let mut table = format!(
        "{} samples of {} ms, rotating through the three simulators\n",
        m.loops.iter().map(|l| l.samples).sum::<usize>(),
        SAMPLE.as_millis()
    );
    for (name, ns) in rows {
        table.push_str(&format!("{name:<28} {ns:>12.2} host ns per simulated cycle\n"));
    }
    crate::write_trace_files(run, &t, &table)?;
    let mut report: Vec<String> = table.lines().map(str::to_owned).collect();
    report.extend(errors.iter().map(|e| format!("FAILED {e}")));
    Ok(Outcome { attempted, failed, metrics, report })
}
