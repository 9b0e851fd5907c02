//! The metric catalog: every name the benchmark prints, with its unit and
//! which direction is better. `BENCHMARK.json` at the repository root
//! lists the same names (a test holds the two equal).

use memvm::OpClass;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, counts of work, ratios of waste).
    Lower,
    /// Larger is better (throughputs, hit ratios).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalog entry.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Better direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

fn m(name: impl Into<String>, unit: &'static str, better: Better) -> Metric {
    Metric { name: name.into(), unit, better, bound: None }
}

/// End-to-end metrics, printed by every untraced run of every workload.
/// An "op" is a sweep cell, a compile job or a served request.
///
/// The bounds reflect the host the benchmark was tuned on: a shared
/// 2-vCPU virtual machine whose effective speed drifted by 20–30% over
/// minutes (hypervisor steal and contention from other tenants), which
/// moved wall-clock and CPU-time figures alike; the daemon's peak memory
/// moved by up to 10% with allocator state. Tail percentiles (p90, p99)
/// are in the result file but not gated: on that host they mostly measure
/// how often the hypervisor preempts a long operation.
pub fn end_to_end() -> Vec<Metric> {
    let b = |name: &str, unit, better, bound| Metric {
        name: name.to_string(),
        unit,
        better,
        bound: Some(bound),
    };
    vec![
        b("setup_s", "s", Better::Lower, 0.25),
        b("ops_per_s", "1/s", Better::Higher, 0.25),
        b("cpu_ms_per_op", "ms", Better::Lower, 0.25),
        b("op_p50_ms", "ms", Better::Lower, 0.25),
        b("peak_rss_mb", "MiB", Better::Lower, 0.25),
    ]
}

/// The pipeline-prefix passes reported as `mir.pass.<name>.ms` (the
/// passes `mir::pipeline` runs before the extension points today).
pub const PREFIX_PASSES: [&str; 9] = [
    "simplifycfg",
    "mem2reg",
    "constfold",
    "dce",
    "inline",
    "gvn",
    "dse",
    "licm",
    "promote-loop-scalars",
];

/// Mechanism short names used by per-mechanism metrics.
pub const FLAVOURS: [&str; 4] = ["baseline", "softbound", "lowfat", "redzone"];

/// Per-layer metrics, printed by every traced run of every workload.
/// Times (`.ms`) are self time per op; a layer a workload does not reach
/// reads 0.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut v = vec![
        m("cfront.ms", "ms", Lower),
        m("cfront.src_kb_per_s", "kB/s", Higher),
        m("mir.prefix.ms", "ms", Lower),
    ];
    for p in PREFIX_PASSES {
        v.push(m(format!("mir.pass.{p}.ms"), "ms", Lower));
    }
    v.extend([
        m("mir.ir_instrs.prefix", "count", Lower),
        m("mir.ir_instrs.instrumented", "count", Lower),
        m("mir.ipo.ms", "ms", Lower),
        m("instrument.ms", "ms", Lower),
        m("instrument.checks_placed", "count", Lower),
        m("instrument.checks_eliminated", "count", Higher),
        m("instrument.checks_hoisted", "count", Higher),
        m("instrument.checks_widened", "count", Higher),
        m("instrument.checks_elided_ipo", "count", Higher),
        m("vm.prepare.ms", "ms", Lower),
    ]);
    for f in FLAVOURS {
        v.push(m(format!("vm.exec.ms.{f}"), "ms", Lower));
    }
    for f in FLAVOURS {
        v.push(m(format!("vm.ns_per_instr.{f}"), "ns", Lower));
    }
    for c in OpClass::ALL {
        v.push(m(format!("vm.op_count.{}", c.name()), "count", Lower));
    }
    for f in ["sb", "lf", "rz"] {
        v.push(m(format!("vm.wall_overhead.{f}"), "ratio", Lower));
    }
    v.extend([
        m("vm.guest_instrs", "count", Lower),
        m("vm.checks_executed", "count", Lower),
        m("vm.checks_wide", "count", Lower),
        m("vm.metadata_loads", "count", Lower),
        m("vm.metadata_stores", "count", Lower),
    ]);
    for c in ["app", "checks", "metadata", "allocator", "other"] {
        v.push(m(format!("vm.cost.{c}"), "count", Lower));
    }
    v.extend([
        m("mem.cache_hit_ratio", "ratio", Higher),
        m("mem.cache_demotions", "count", Lower),
        m("mem.pages_materialized", "count", Lower),
        m("vm.mapped_bytes_max", "bytes", Lower),
        m("cost_overhead_sb", "ratio", Lower),
        m("cost_overhead_lf", "ratio", Lower),
        m("cost_overhead_rz", "ratio", Lower),
        m("driver.worker_util", "ratio", Higher),
        m("driver.max_cell_ms", "ms", Lower),
    ]);
    for l in ["frontend", "prefix", "summaries", "compiled", "bytecode"] {
        v.push(m(format!("store.hit_ratio.{l}"), "ratio", Higher));
    }
    v.extend([
        m("store.evictions", "count", Lower),
        m("serve.exec.ms", "ms", Lower),
        m("serve.overhead_ms", "ms", Lower),
        m("serve.rejects", "count", Lower),
        m("serve.fresh_ratio", "ratio", Lower),
        m("serve.share.run", "ratio", Lower),
        m("serve.share.compile", "ratio", Lower),
        m("serve.share.profile", "ratio", Lower),
        m("trace.unattributed_ratio", "ratio", Lower),
        m("trace.overhead_ratio", "ratio", Lower),
    ]);
    v
}

/// Per-layer metrics that are exact counts or ratios of counts: identical
/// on every run with the same seed (and, for `sweep`, on every seed).
pub fn is_deterministic(name: &str) -> bool {
    name.starts_with("cost_overhead_")
        || name.starts_with("instrument.checks_")
        || name.starts_with("vm.op_count.")
        || name.starts_with("vm.checks_")
        || name.starts_with("vm.cost.")
        || name.starts_with("mem.")
        || name.starts_with("mir.ir_instrs.")
        || name.starts_with("serve.share.")
        || name == "serve.fresh_ratio"
        || matches!(
            name,
            "vm.guest_instrs" | "vm.metadata_loads" | "vm.metadata_stores" | "vm.mapped_bytes_max"
        )
}
