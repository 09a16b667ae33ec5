//! The two exploration workloads: the greedy Figure-1 loop on SPAM
//! with the DSP kernels, without and with the event-netlist
//! cross-check.

use crate::inputs::{self, Case};
use crate::measure::{median, peak_rss_mb, quantile, Metrics};
use crate::spans::Tracer;
use crate::{Outcome, Run, SPAM_PATH, WORKERS};
use archex::{
    apply_mutation, EvalCache, EvalOptions, Explorer, Kernel, Mutation, NetlistCheck, Trace,
};
use gensim::{StopReason, Xsim};
use hgen::HgenOptions;
use isdl::model::{FieldId, NtId, OpRef};
use isdl::Machine;
use obs::Json;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};
use vlog::{AnySim, SimBackend};
use xasm::{Assembler, Disassembler, Program};

/// Single-mutation neighbours traced per pass, besides the start
/// machine.
const TRACED_NEIGHBOURS: usize = 15;

/// Runaway guard of the halt probe, in multiples of the XSIM cycle
/// count.
const HALT_PROBE_LIMIT: u64 = 16;

/// Explorations after which peak memory is read. A fixed count keeps
/// the reading independent of how many explorations a run fits in:
/// memory that grows per exploration (such as thread-local rings left
/// behind by finished worker threads) would otherwise rise with speed.
const RSS_AFTER: usize = 3;

/// Range of `archex.layer_coverage` a traced run accepts.
const COVERAGE: std::ops::RangeInclusive<f64> = 0.8..=1.2;

/// Explorer step limit: high enough that greedy search stops on its
/// own (today after 15 accepted steps).
const MAX_STEPS: usize = 1_000;

/// The set-up every exploration run shares: the start machine and the
/// seeded kernels.
struct Setup {
    machine: Machine,
    cases: Vec<Case>,
    kernels: Vec<Kernel>,
}

/// Loads `fixtures/spam.isdl` and generates the seeded kernels,
/// recording a `setup` span with an `isdl.load` child.
fn setup_once(seed: u64, t: &mut Tracer) -> Result<Setup, String> {
    t.open("setup");
    let machine = t.time("isdl.load", || -> Result<Machine, String> {
        let src =
            std::fs::read_to_string(SPAM_PATH).map_err(|e| format!("reading {SPAM_PATH}: {e}"))?;
        isdl::load(&src).map_err(|e| format!("{SPAM_PATH}: {e}"))
    });
    let cases = inputs::dsp(seed);
    let kernels = cases.iter().map(|c| c.kernel.clone()).collect();
    t.close();
    Ok(Setup { machine: machine?, cases, kernels })
}

/// Sets up until [`crate::setup_done`]; returns the last set-up.
fn setup(seed: u64, t: &mut Tracer) -> Result<Setup, String> {
    loop {
        let s = setup_once(seed, t)?;
        if crate::setup_done(t) {
            return Ok(s);
        }
    }
}

/// The explorer `isdlc explore` builds, with the step limit raised and
/// the given worker count.
fn explorer(netlist: bool, threads: usize) -> Explorer {
    Explorer {
        max_steps: MAX_STEPS,
        threads,
        netlist_check: if netlist {
            NetlistCheck::Run(SimBackend::Event)
        } else {
            NetlistCheck::Off
        },
        ..Explorer::default()
    }
}

/// The evaluation options `Explorer` hands to every fresh evaluation.
fn eval_options(netlist: bool) -> EvalOptions<'static> {
    let e = explorer(netlist, 1);
    EvalOptions {
        hgen: e.hgen,
        budget: e.budget,
        profile: e.instrument,
        netlist: e.netlist_check,
        ..EvalOptions::default()
    }
}

/// Fresh-evaluation failures of one exploration. Compile errors are
/// infeasible candidates — correct outcomes, not failures.
fn eval_failures(trace: &Trace) -> usize {
    trace
        .error_histogram
        .iter()
        .filter(|(kind, _)| kind.as_str() != "compile")
        .map(|(_, n)| n)
        .sum()
}

/// Records pass/fail of the correctness checks.
#[derive(Default)]
struct Checks {
    attempted: usize,
    errors: Vec<String>,
}

impl Checks {
    fn check(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.errors.push(format!("{what}: {e}"));
        }
    }
}

/// One workload run.
pub fn run(run: &Run, netlist: bool) -> Result<Outcome, String> {
    let mut tracer = Tracer::new();
    let s = setup(run.seed, &mut tracer)?;
    if run.trace {
        traced(run, netlist, &s, tracer)
    } else {
        timed(run, netlist, &s, &mut tracer)
    }
}

/// The end-to-end run: repeated explorations at [`WORKERS`] threads
/// for `run.seconds` (and at least [`RSS_AFTER`]), with further
/// set-ups in between, then the correctness checks.
fn timed(run: &Run, netlist: bool, s: &Setup, setups: &mut Tracer) -> Result<Outcome, String> {
    let timed = explorer(netlist, WORKERS);
    let budget = Duration::from_secs(run.seconds);
    let started = Instant::now();
    let mut checks = Checks::default();
    let (mut first, mut rss, mut secs_per_eval, mut latency_ms) =
        (None, None, Vec::new(), Vec::new());
    let (mut evals, mut eval_failed) = (0, 0);
    while secs_per_eval.len() < RSS_AFTER || started.elapsed() < budget {
        let t0 = Instant::now();
        let trace = timed.run(&s.machine, &s.kernels).map_err(|e| format!("explore: {e}"))?;
        secs_per_eval.push(t0.elapsed().as_secs_f64() / trace.evaluated as f64);
        latency_ms.extend(
            trace.obs.timeline.iter().filter(|x| x.cat == "eval").map(|x| x.dur_us as f64 / 1e3),
        );
        if secs_per_eval.len() == RSS_AFTER {
            rss = Some(peak_rss_mb()?);
        }
        evals += trace.attempts;
        eval_failed += eval_failures(&trace);
        while crate::setup_due(setups, started.elapsed()) {
            setup_once(run.seed, setups)?;
        }
        // Only the first trace is kept, so memory does not grow with
        // the number of explorations a run fits in.
        match &first {
            None => first = Some(trace),
            Some(f) => checks
                .check(&format!("repetition {}", secs_per_eval.len() - 1), same_search(f, &trace)),
        }
    }
    let (first, rss) =
        (first.expect("at least one exploration"), rss.expect("read after RSS_AFTER"));

    for (label, machine) in [("start", &s.machine), ("best", &first.machine)] {
        for case in &s.cases {
            let r = inputs::run_reference(machine, case).map(drop);
            checks.check(&format!("{label} machine, {}", case.kernel.name), r);
        }
    }
    let serial =
        explorer(netlist, 1).run(&s.machine, &s.kernels).map_err(|e| format!("explore: {e}"))?;
    checks.check("1-thread exploration", same_search(&first, &serial));
    let accuracy = if netlist { Some(accuracy_probe(s, &first, &mut checks)?) } else { None };
    let attempted = evals + checks.attempted;
    let failed = eval_failed + checks.errors.len();

    let setup_s = crate::span_median_us(setups, "setup") / 1e6;
    let best = first.steps.last().expect("a trace holds its initial step");
    let rate = 1.0 / median(&secs_per_eval);
    let (p50, p99) = (quantile(&latency_ms, 0.5), quantile(&latency_ms, 0.99));

    let mut report = vec![
        format!(
            "{} fresh evaluations x {} explorations at {WORKERS} threads, {} accepted steps",
            first.evaluated,
            secs_per_eval.len(),
            first.steps.len() - 1
        ),
        format!("evals_per_s       {rate:.1} evals/s"),
        format!("eval_p50_ms       {p50:.3} ms (n={})", latency_ms.len()),
        format!("eval_p99_ms       {p99:.3} ms (n={})", latency_ms.len()),
        format!("best_score        {:.6} objective (lower better)", best.score),
        format!("best_runtime_us   {:.4} simulated us", best.metrics.runtime_us),
        format!("best_area_cells   {:.0} grid cells", best.metrics.area_cells),
    ];
    if let Some(a) = &accuracy {
        report.push(format!("cycle_error_pct   {:.3} %", a.error_pct()));
    }
    report.push(format!("setup_s           {setup_s:.6} s"));
    report.push(format!("peak_rss_mb       {rss:.1} MiB after {RSS_AFTER} explorations"));
    report.push(format!("error_ratio       {} ({failed}/{attempted})", ratio(failed, attempted)));
    report.extend(checks.errors.iter().map(|e| format!("FAILED {e}")));

    let mut m = Metrics::default();
    m.put("rate_per_s", rate, "1/s");
    m.put("latency_p50_ms", p50, "ms");
    m.put("latency_p99_ms", p99, "ms");
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mb", rss, "MiB");
    Ok(Outcome { attempted, failed, metrics: m, report })
}

fn ratio(failed: usize, attempted: usize) -> f64 {
    failed as f64 / attempted.max(1) as f64
}

fn same_search(a: &Trace, b: &Trace) -> Result<(), String> {
    if a.semantic_eq(b) {
        Ok(())
    } else {
        Err(format!(
            "trace differs: {} vs {} evaluations, {} vs {} steps",
            a.evaluated,
            b.evaluated,
            a.steps.len(),
            b.steps.len()
        ))
    }
}

/// Netlist halt timing measured from outside: for each (machine,
/// kernel), the event netlist is clocked one edge at a time until
/// `pc_out` reaches the halt self-loop XSIM stopped on.
struct Accuracy {
    /// Σ |netlist edges to halt − XSIM cycles|.
    abs_diff: u64,
    /// Σ XSIM cycles.
    xsim_cycles: u64,
    /// Σ netlist edges to halt.
    halt_edges: u64,
    /// Σ edges the evaluation cross-check clocks, as `evaluate_with`
    /// reports them.
    checked_edges: u64,
}

impl Accuracy {
    fn error_pct(&self) -> f64 {
        100.0 * self.abs_diff as f64 / self.xsim_cycles as f64
    }
}

fn accuracy_probe(s: &Setup, best: &Trace, checks: &mut Checks) -> Result<Accuracy, String> {
    let mut acc = Accuracy { abs_diff: 0, xsim_cycles: 0, halt_edges: 0, checked_edges: 0 };
    for (label, machine) in [("start", &s.machine), ("best", &best.machine)] {
        let hw = hgen::synthesize(machine, HgenOptions::default())
            .map_err(|e| format!("synthesizing the {label} machine: {e}"))?;
        let checked = archex::evaluate_with(machine, &s.kernels, &eval_options(true))
            .map_err(|e| format!("evaluating the {label} machine: {e}"))
            .and_then(|ev| checked_edges(&ev))?;
        for (case, &checked) in s.cases.iter().zip(&checked) {
            let what = format!("{label} machine, {} on the event netlist", case.kernel.name);
            let probe = hw
                .simulator(SimBackend::Event)
                .map_err(|e| e.to_string())
                .and_then(|sim| halt_probe(machine, case, sim));
            match probe {
                Ok(p) if p.halt_edges <= checked => {
                    acc.abs_diff += p.halt_edges.abs_diff(p.xsim.cycles);
                    acc.xsim_cycles += p.xsim.cycles;
                    acc.halt_edges += p.halt_edges;
                    acc.checked_edges += checked;
                    checks.check(&what, Ok(()));
                }
                Ok(p) => checks.check(
                    &what,
                    Err(format!(
                        "halts after {} edges, but the cross-check clocks only {checked}",
                        p.halt_edges
                    )),
                ),
                Err(e) => checks.check(&what, Err(e)),
            }
        }
    }
    Ok(acc)
}

/// Edges the evaluation's netlist cross-check clocked, per kernel: the
/// `cycles` of each `vlog-stats/1` block in `Evaluation.netlist_stats`.
fn checked_edges(ev: &archex::Evaluation) -> Result<Vec<u64>, String> {
    ev.netlist_stats
        .get("kernels")
        .and_then(Json::as_arr)
        .ok_or("the evaluation reports no netlist kernels")?
        .iter()
        .map(|k| k.get_u64("cycles").ok_or_else(|| "a netlist kernel reports no cycles".to_owned()))
        .collect()
}

/// What one halt probe observed.
pub struct HaltProbe {
    /// The XSIM reference run.
    pub xsim: inputs::XsimRun,
    /// Netlist edges until `pc_out` first showed the halt address.
    pub halt_edges: u64,
    /// The loaded, halted netlist simulator.
    pub sim: AnySim,
    /// The assembled program.
    pub program: Program,
}

/// Runs `case` on XSIM against its reference, then on `sim`, a freshly
/// elaborated netlist of `machine`, clocking one edge at a time until
/// `pc_out` reaches XSIM's halt address; after the in-flight results
/// drain, the netlist's data memory must match the reference too.
/// A netlist that has not halted after [`HALT_PROBE_LIMIT`] times the
/// XSIM cycles (plus a margin) fails.
pub fn halt_probe(machine: &Machine, case: &Case, mut sim: AnySim) -> Result<HaltProbe, String> {
    let xsim = inputs::run_reference(machine, case)?;
    let program = assemble(machine, &case.kernel)?;
    load_netlist(machine, &program, &mut sim)?;
    let limit = HALT_PROBE_LIMIT * xsim.cycles + 64;
    let mut halt_edges = 0;
    while pc_out(&sim)? != xsim.halt_pc {
        if halt_edges == limit {
            return Err(format!("{}: no halt within {limit} edges", case.kernel.name));
        }
        sim.clock(1).map_err(|e| e.to_string())?;
        halt_edges += 1;
    }
    sim.clock(drain_edges(machine)).map_err(|e| e.to_string())?;
    let dm = inputs::data_memory(machine)?;
    let name = &machine.storage(dm).name;
    let depth = machine.storage(dm).cells();
    case.reference
        .check(depth, |a| sim.peek_memory(name, a).map_or(u64::MAX, |v| v.to_u64_lossy()))
        .map_err(|e| format!("{} on the {} netlist: {e}", case.kernel.name, sim.backend()))?;
    Ok(HaltProbe { xsim, halt_edges, sim, program })
}

/// Edges that retire every result still in flight at the halt.
pub fn drain_edges(machine: &Machine) -> u64 {
    u64::from(hgen::datapath::max_latency(machine)) + 1
}

/// The netlist's program counter.
pub fn pc_out(sim: &AnySim) -> Result<u64, String> {
    sim.peek("pc_out").map(|v| v.to_u64_lossy()).map_err(|e| e.to_string())
}

/// Compiles and assembles one kernel.
pub fn assemble(machine: &Machine, kernel: &Kernel) -> Result<Program, String> {
    let compiled = archex::compile(machine, kernel).map_err(|e| format!("{}: {e}", kernel.name))?;
    Assembler::new(machine).assemble(&compiled.asm).map_err(|e| format!("{}: {e}", kernel.name))
}

/// Pokes `program`'s instruction words and initial data into `sim`,
/// as the evaluation cross-check does.
pub fn load_netlist(machine: &Machine, program: &Program, sim: &mut AnySim) -> Result<(), String> {
    let imem = &machine.storage(machine.imem.ok_or("machine has no imem")?).name;
    let w = machine.word_width;
    for (a, word) in program.words.iter().enumerate() {
        sim.poke_memory(imem, a as u64, word.trunc(w).zext(w)).map_err(|e| e.to_string())?;
    }
    let dm = inputs::data_memory(machine)?;
    let dm = machine.storage(dm);
    for &(addr, v) in &program.data {
        sim.poke_memory(&dm.name, addr, bitv::BitVector::from_i64(v, dm.width))
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

// ---------------------------------------------------------------- traced

/// Every structurally possible single-mutation neighbour of `machine`,
/// labelled by its mutation.
fn neighbours(machine: &Machine) -> Vec<(String, Machine)> {
    let ops: Vec<OpRef> = machine.all_ops().map(|(r, _)| r).collect();
    let mut mutations: Vec<Mutation> = ops.iter().map(|&r| Mutation::RemoveOp(r)).collect();
    mutations.extend((0..machine.fields.len()).map(|f| Mutation::RemoveField(FieldId(f))));
    for a in &ops {
        mutations
            .extend(ops.iter().filter(|b| a.field < b.field).map(|b| Mutation::ForbidPair(*a, *b)));
    }
    for (n, nt) in machine.nonterminals.iter().enumerate() {
        mutations.extend((0..nt.options.len()).map(|o| Mutation::RemoveNtOption(NtId(n), o)));
    }
    mutations
        .iter()
        .filter_map(|m| apply_mutation(machine, m).map(|c| (m.to_string(), c)))
        .collect()
}

/// One machine of the traced sample.
struct Candidate {
    /// The mutation that made it, or `start`.
    label: String,
    machine: Machine,
    /// Per kernel, the edges `evaluate_with`'s netlist cross-check
    /// clocks on it; empty when the check is off. The traced replica
    /// clocks the same number, so it follows any change to the
    /// cross-check's clocking rule.
    edges: Vec<u64>,
}

/// The start machine plus the first [`TRACED_NEIGHBOURS`] neighbours,
/// in a seeded shuffle, that evaluate completely: infeasible candidates
/// stop after a stage or two and would say little about the layers.
fn traced_candidates(s: &Setup, seed: u64, netlist: bool) -> Result<Vec<Candidate>, String> {
    let mut pool = neighbours(&s.machine);
    let mut state = seed;
    for i in (1..pool.len()).rev() {
        state = inputs::splitmix64(state);
        let j = usize::try_from(state % (i as u64 + 1)).expect("index fits");
        pool.swap(i, j);
    }
    let opts = eval_options(netlist);
    let mut out = Vec::new();
    for (label, machine) in std::iter::once(("start".to_owned(), s.machine.clone())).chain(pool) {
        if out.len() > TRACED_NEIGHBOURS {
            break;
        }
        let ev = match archex::evaluate_with(&machine, &s.kernels, &opts) {
            Ok(ev) => ev,
            Err(_) if label != "start" => continue,
            Err(e) => return Err(format!("start machine: {e}")),
        };
        let edges = if netlist { checked_edges(&ev)? } else { Vec::new() };
        out.push(Candidate { label, machine, edges });
    }
    Ok(out)
}

/// Counts non-terminal option uses in `program`, as `evaluate_with`
/// does for the remove-addressing-mode mutation.
fn count_nt_options(machine: &Machine, program: &Program) -> usize {
    fn walk(arg: &xasm::Operand) -> usize {
        match arg {
            xasm::Operand::NonTerminal { args, .. } => 1 + args.iter().map(walk).sum::<usize>(),
            _ => 0,
        }
    }
    let Ok(d) = Disassembler::try_new(machine) else { return 0 };
    let (mut addr, mut uses) = (0usize, 0);
    while addr < program.words.len() {
        let end = (addr + d.max_size() as usize).min(program.words.len());
        match d.decode(&program.words[addr..end], addr as u64) {
            Ok(instr) => {
                uses += instr.ops.iter().flat_map(|op| &op.args).map(walk).sum::<usize>();
                addr += instr.size as usize;
            }
            Err(_) => addr += 1,
        }
    }
    uses
}

/// One candidate through each stage's public function, in
/// `evaluate_with`'s order, one span per call. Returns the total cycles
/// and die size for comparison with the untraced evaluation.
fn traced_evaluate(
    t: &mut Tracer,
    c: &Candidate,
    kernels: &[Kernel],
    netlist: bool,
) -> Result<(u64, f64), String> {
    t.open("archex.evaluate");
    let out = traced_stages(t, c, kernels, netlist);
    t.close_all();
    out
}

fn traced_stages(
    t: &mut Tracer,
    c: &Candidate,
    kernels: &[Kernel],
    netlist: bool,
) -> Result<(u64, f64), String> {
    let machine = &c.machine;
    let opts = eval_options(netlist);
    let assembler = t.time("xasm.assembler_new", || Assembler::new(machine));
    let mut cycles = 0;
    let mut runs = Vec::new();
    for (i, kernel) in kernels.iter().enumerate() {
        let compiled = t
            .time("archex.compile", || archex::compile(machine, kernel))
            .map_err(|e| format!("{}: {e}", kernel.name))?;
        let program = t
            .time("xasm.assemble", || assembler.assemble(&compiled.asm))
            .map_err(|e| e.to_string())?;
        let mut sim = t.time("gensim.generate", || -> Result<Xsim<'_>, String> {
            let mut sim = Xsim::generate(machine).map_err(|e| e.to_string())?;
            sim.load_program(&program);
            if opts.profile {
                sim.enable_profile();
            }
            Ok(sim)
        })?;
        let stop = t.time("gensim.run", || {
            sim.run_fuel(opts.budget.max_cycles, opts.budget.max_instructions)
        });
        if stop != StopReason::Halted {
            return Err(format!("{}: XSIM stopped with {stop}", kernel.name));
        }
        if opts.profile {
            t.time("gensim.profile", || black_box(gensim::profile_json(&sim)));
        }
        t.time("gensim.stats", || {
            if i == 0 {
                black_box(gensim::stats_json(&sim));
            }
            black_box(sim.op_counts());
        });
        t.time("xasm.disassemble", || black_box(count_nt_options(machine, &program)));
        cycles += sim.stats().cycles;
        if netlist {
            runs.push((program, sim));
        }
    }
    t.open("hgen.synthesize");
    let hgen_opts = opts.hgen;
    let (module, _) = t.time("hgen.emit", || {
        hgen::emit::emit(machine, hgen_opts.decode, hgen_opts.share, hgen_opts.pipeline())
    });
    t.time("hgen.to_verilog", || black_box(module.to_verilog().lines().count()));
    let report =
        t.time("vlog.tech_analyze", || vlog::tech::analyze(&module)).map_err(|e| e.to_string())?;
    t.close();
    for ((program, xsim), &edges) in runs.iter().zip(&c.edges) {
        let mut sim = t
            .time("vlog.event.elaborate", || AnySim::elaborate(&module, SimBackend::Event))
            .map_err(|e| e.to_string())?;
        t.time("vlog.event.load", || load_netlist(machine, program, &mut sim))?;
        t.time("vlog.event.clock", || sim.clock(edges)).map_err(|e| e.to_string())?;
        t.time("archex.netlist_compare", || compare_state(machine, xsim, &sim))?;
        t.time("vlog.stats", || black_box(vlog::stats_json(&sim)));
    }
    Ok((cycles, report.area_cells))
}

/// The cross-check's comparison: every data-carrying storage of the
/// netlist must equal XSIM's.
fn compare_state(machine: &Machine, xsim: &Xsim<'_>, sim: &AnySim) -> Result<(), String> {
    use isdl::model::StorageKind::{InstructionMemory, ProgramCounter};
    for (i, s) in machine.storages.iter().enumerate() {
        if matches!(s.kind, ProgramCounter | InstructionMemory) {
            continue;
        }
        for a in 0..s.cells() {
            let soft = xsim.state().read(isdl::rtl::StorageId(i), a);
            let hard =
                if s.kind.is_addressed() { sim.peek_memory(&s.name, a) } else { sim.peek(&s.name) }
                    .map_err(|e| e.to_string())?;
            if *soft != hard {
                return Err(format!("{}[{a}]: XSIM {soft}, netlist {hard}", s.name));
            }
        }
    }
    Ok(())
}

/// `hgen::share::plan` on the candidate's datapath nodes, the part of
/// `hgen::emit` the ROADMAP names as dominant. Recorded under its own
/// `probe` root, so it does not count towards layer coverage.
fn share_plan_probe(t: &mut Tracer, machine: &Machine) {
    let opts = HgenOptions::default();
    let plan = hgen::decode::DecodePlan::new(machine);
    let dp = hgen::datapath::DatapathBuilder::new(&plan, "instr", opts.decode)
        .with_pipeline(opts.pipeline())
        .build(&|r| format!("dec_f{}_o{}", r.field.0, r.op));
    let nodes: Vec<hgen::share::ShareNode> = dp.nodes.iter().map(|n| n.share.clone()).collect();
    t.open("probe");
    t.time("hgen.share_plan", || black_box(hgen::share::plan(machine, &nodes, opts.share)));
    t.close();
}

/// Layers of the per-evaluation table, in pipeline order, with the
/// ROADMAP's probe figure where it gave one.
const LAYERS: [(&str, Option<&str>); 20] = [
    ("xasm.assembler_new", None),
    ("archex.compile", None),
    ("xasm.assemble", Some("1.3 ms (two kernels)")),
    ("gensim.generate", Some("0.8 ms")),
    ("gensim.run", Some("68 us")),
    ("gensim.profile", None),
    ("gensim.stats", None),
    ("xasm.disassemble", None),
    ("hgen.synthesize", None),
    ("hgen.emit", Some("7.2 ms")),
    ("hgen.to_verilog", None),
    ("vlog.tech_analyze", Some("0.7 ms")),
    ("vlog.event.elaborate", Some("1.3 ms")),
    ("vlog.event.load", None),
    ("vlog.event.clock", Some("4.5 ms")),
    ("archex.netlist_compare", None),
    ("vlog.stats", None),
    ("archex.evaluate", None),
    ("isdl.print_key", None),
    ("hgen.share_plan", None),
];

/// The per-layer run: one exploration for the exact counts and worker
/// busy ratio, the accuracy probe, then repeated traced passes over the
/// candidate sample for `run.seconds`.
fn traced(run: &Run, netlist: bool, s: &Setup, mut t: Tracer) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let e = explorer(netlist, WORKERS);
    let trace = e.run(&s.machine, &s.kernels).map_err(|e| format!("explore: {e}"))?;
    let busy_us: u64 =
        trace.obs.timeline.iter().filter(|x| x.cat == "eval").map(|x| x.dur_us).sum();
    let busy = busy_us as f64 / (WORKERS as f64 * trace.obs.wall_s * 1e6);
    let accuracy = if netlist { Some(accuracy_probe(s, &trace, &mut checks)?) } else { None };
    let start_hw =
        hgen::synthesize(&s.machine, HgenOptions::default()).map_err(|e| e.to_string())?;
    let start_eval = archex::evaluate_with(&s.machine, &s.kernels, &eval_options(netlist))
        .map_err(|e| format!("start machine: {e}"))?;

    let candidates = traced_candidates(s, run.seed, netlist)?;
    let n = candidates.len() as u64;
    let opts = eval_options(netlist);
    let budget = Duration::from_secs(run.seconds);
    let started = Instant::now();
    let mut untraced_us = BTreeMap::new();
    let mut pass = 0u64;
    while pass == 0 || started.elapsed() < budget {
        for (i, c) in candidates.iter().enumerate() {
            t.set_request(pass * n + i as u64);
            t.open("key");
            t.time("isdl.print_key", || black_box(EvalCache::key(&c.machine)));
            t.close();
            let traced = traced_evaluate(&mut t, c, &s.kernels, netlist);
            share_plan_probe(&mut t, &c.machine);
            let t0 = Instant::now();
            let untraced = archex::evaluate_with(&c.machine, &s.kernels, &opts);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            let agree = match (&traced, &untraced) {
                (Ok((cycles, area)), Ok(ev)) => {
                    untraced_us.insert(pass * n + i as u64, us);
                    if *cycles == ev.metrics.cycles && *area == ev.metrics.area_cells {
                        Ok(())
                    } else {
                        Err(format!("traced {cycles} cycles/{area} cells, untraced {}", ev.metrics))
                    }
                }
                (Err(a), Err(b)) => Err(format!("both failed: {a} / {b}")),
                (Err(a), Ok(_)) => Err(format!("traced run failed: {a}")),
                (Ok(_), Err(b)) => Err(format!("untraced run failed: {b}")),
            };
            if pass == 0 {
                checks.check(&format!("candidate {i} ({})", c.label), agree);
            } else if let Err(e) = agree {
                checks.check(&format!("candidate {i} ({}), pass {pass}", c.label), Err(e));
            }
        }
        pass += 1;
    }

    let attr = Attribution::new(&t, untraced_us, n);
    let coverage = attr.coverage();
    // A replica that has drifted from `evaluate_with` (a stage added,
    // dropped or changed in archex but not here) shows as coverage far
    // from 1.
    checks.check(
        "layer coverage",
        if COVERAGE.contains(&coverage) {
            Ok(())
        } else {
            Err(format!("{coverage:.3} is outside {COVERAGE:?}: the traced replica is stale"))
        },
    );
    let mut report = vec![format!(
        "{} candidates x {pass} traced passes ({} complete evaluations); layer coverage {coverage:.3}",
        candidates.len(),
        attr.untraced_us.len()
    )];
    let table = attr.table(&candidates);
    report.extend(table.lines().map(str::to_owned));
    crate::write_trace_files(run, &t, &table)?;

    let best = trace.steps.last().expect("a trace holds its initial step");
    let evals_failed = eval_failures(&trace);
    let attempted = trace.attempts + checks.attempted;
    let failed = evals_failed + checks.errors.len();
    report.extend(checks.errors.iter().map(|e| format!("FAILED {e}")));

    let mut m = Metrics::default();
    m.put("isdl.load_us", crate::span_median_us(&t, "isdl.load"), "us");
    for (name, key) in [
        ("isdl.print_key_us", "isdl.print_key"),
        ("archex.compile_us", "archex.compile"),
        ("xasm.assembler_new_us", "xasm.assembler_new"),
        ("xasm.assemble_us", "xasm.assemble"),
        ("gensim.generate_us", "gensim.generate"),
        ("gensim.run_us", "gensim.run"),
        ("hgen.emit_us", "hgen.emit"),
        ("hgen.share_plan_us", "hgen.share_plan"),
        ("hgen.to_verilog_us", "hgen.to_verilog"),
        ("vlog.tech_analyze_us", "vlog.tech_analyze"),
        ("vlog.event.elaborate_us", "vlog.event.elaborate"),
        ("vlog.event.clock_us", "vlog.event.clock"),
    ] {
        m.put(name, attr.layer(key, None), "us");
    }
    m.put(
        "vlog.useful_clock_ratio",
        accuracy.as_ref().map_or(0.0, |a| a.halt_edges as f64 / a.checked_edges as f64),
        "ratio",
    );
    m.put("archex.worker_busy_ratio", busy, "ratio");
    m.put("archex.evaluate_us", attr.evaluate_us(None), "us");
    m.put("archex.layer_coverage", coverage, "ratio");
    m.put("archex.evaluated", trace.evaluated as f64, "count");
    m.put("archex.skipped", trace.skipped_errors as f64, "count");
    m.put("archex.cache_hits", trace.cache_hits as f64, "count");
    m.put("archex.rounds", trace.obs.rounds.len() as f64, "count");
    m.put("gensim.sim_cycles", start_eval.metrics.cycles as f64, "cycles");
    m.put("hgen.units_saved", start_hw.stats.units_saved as f64, "count");
    m.put("hgen.lines_of_verilog", start_hw.lines_of_verilog as f64, "lines");
    m.put("best_score", best.score, "objective");
    m.put("best_runtime_us", best.metrics.runtime_us, "sim_us");
    m.put("best_area_cells", best.metrics.area_cells, "cells");
    m.put("cycle_error_pct", accuracy.as_ref().map_or(0.0, Accuracy::error_pct), "%");
    m.put("error_ratio", ratio(failed, attempted), "ratio");
    Ok(Outcome { attempted, failed, metrics: m, report })
}

/// Where the time of the traced candidate passes went.
struct Attribution {
    /// Per complete evaluation (request id), the self time (µs) of every
    /// span name under the `key`, `archex.evaluate` and `probe` roots.
    self_us: BTreeMap<u64, BTreeMap<&'static str, f64>>,
    /// Per complete evaluation, the summed self time (µs) of the stages
    /// under `archex.evaluate`, the root's own glue excluded.
    staged_us: BTreeMap<u64, f64>,
    /// Per complete evaluation, the untraced `evaluate_with` time, µs.
    untraced_us: BTreeMap<u64, f64>,
    /// Candidates per pass (request id = pass · candidates + index).
    candidates: u64,
}

impl Attribution {
    fn new(t: &Tracer, untraced_us: BTreeMap<u64, f64>, candidates: u64) -> Self {
        let staged_us = t
            .self_us_by_request(&["archex.evaluate"])
            .into_iter()
            .map(|(r, l)| {
                (r, l.iter().filter(|(k, _)| **k != "archex.evaluate").map(|(_, v)| v).sum())
            })
            .collect();
        let self_us = t.self_us_by_request(&["key", "archex.evaluate", "probe"]);
        Self { self_us, staged_us, untraced_us, candidates }
    }

    /// Complete evaluations, optionally of one candidate only.
    fn requests(&self, candidate: Option<u64>) -> impl Iterator<Item = u64> + '_ {
        self.untraced_us
            .keys()
            .copied()
            .filter(move |r| candidate.is_none_or(|c| r % self.candidates == c))
    }

    /// Median self time of layer `name` per evaluation.
    fn layer(&self, name: &str, candidate: Option<u64>) -> f64 {
        let v: Vec<f64> = self
            .requests(candidate)
            .map(|r| self.self_us.get(&r).and_then(|l| l.get(name)).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    }

    /// Median untraced `evaluate_with` time.
    fn evaluate_us(&self, candidate: Option<u64>) -> f64 {
        median(&self.requests(candidate).map(|r| self.untraced_us[&r]).collect::<Vec<_>>())
    }

    /// Σ stage self time / Σ untraced evaluation time.
    fn coverage(&self) -> f64 {
        let staged: f64 = self.requests(None).filter_map(|r| self.staged_us.get(&r)).sum();
        staged / self.untraced_us.values().sum::<f64>()
    }

    /// The per-evaluation layer table (median self time, share of the
    /// untraced evaluation, and the ROADMAP probe figure), then one row
    /// per candidate.
    fn table(&self, candidates: &[Candidate]) -> String {
        use std::fmt::Write as _;
        let evaluate = self.evaluate_us(None);
        let mut out = format!(
            "{:<24} {:>14} {:>8}  ROADMAP probe\n",
            "layer (self time)", "us / eval", "share"
        );
        let mut largest = ("", 0.0);
        for (name, probe) in LAYERS {
            let v = self.layer(name, None);
            if !matches!(name, "archex.evaluate" | "hgen.share_plan") && v > largest.1 {
                largest = (name, v);
            }
            let share = 100.0 * v / evaluate;
            let _ = writeln!(out, "{name:<24} {v:>14.1} {share:>7.1}%  {}", probe.unwrap_or(""));
        }
        let _ = writeln!(
            out,
            "{:<24} {evaluate:>14.1} {:>7.1}%  ~10 ms",
            "untraced evaluate_with", 100.0
        );
        let _ = writeln!(out, "largest self time: {} ({:.1} us)", largest.0, largest.1);
        let _ = writeln!(
            out,
            "\n{:>4} {:<44} {:>12} {:>12} {:>12}",
            "cand", "mutation", "evaluate_us", "hgen.emit", "gensim.run"
        );
        for (i, Candidate { label, .. }) in candidates.iter().enumerate() {
            let c = Some(i as u64);
            let _ = writeln!(
                out,
                "{i:>4} {label:<44} {:>12.1} {:>12.1} {:>12.1}",
                self.evaluate_us(c),
                self.layer("hgen.emit", c),
                self.layer("gensim.run", c)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A seed changes the instruction mix, not the amount of search: every
    /// DSP size pair explores within 10% as many candidates, over as many
    /// accepted steps within one, as the default pair.
    #[test]
    fn every_dsp_size_explores_a_like_amount() {
        let machine = isdl::load(isdl::samples::SPAM).expect("SPAM loads");
        let e = explorer(false, WORKERS);
        let mut default = None;
        for &(dot, upd) in &inputs::DSP_SIZES {
            let kernels =
                vec![archex::workloads::dot_product(dot), archex::workloads::vector_update(upd)];
            let trace = e.run(&machine, &kernels).expect("explores");
            let (evaluated, steps) = (trace.evaluated as f64, trace.steps.len());
            let &mut (want, want_steps) = default.get_or_insert((evaluated, steps));
            assert!(
                (evaluated - want).abs() <= 0.1 * want && steps.abs_diff(want_steps) <= 1,
                "({dot}, {upd}): {evaluated} evaluations in {steps} steps, default {want} in {want_steps}"
            );
        }
    }
}
