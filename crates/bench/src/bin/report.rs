//! Runs every experiment and emits a complete Markdown report
//! (paper-expected values next to measured ones):
//!
//! ```text
//! cargo run --release -p bench --bin report > report.md
//! ```
//!
//! `EXPERIMENTS.md` at the repository root is this output plus three
//! hand-written sections ("VM backend", "Observability", "Serving
//! throughput"); CI fails on any other difference between the two.

use bench::driver::{benchmark_programs, paper_sweep_configs, CellOk, Driver, JobConfig, Report};
use bench::geomean;
use meminstrument::{Mechanism, MiMode, OptConfig};
use mir::pipeline::ExtensionPoint;

/// The paper-sweep cells of one benchmark that the sections read.
struct Data<'a> {
    bench: &'static str,
    size_unknown: bool,
    base: &'a CellOk,
    sb: &'a CellOk,
    lf: &'a CellOk,
    rz: &'a CellOk,
    sb_unopt: &'a CellOk,
    lf_unopt: &'a CellOk,
    sb_noloop: &'a CellOk,
    lf_noloop: &'a CellOk,
    sb_meta: &'a CellOk,
    lf_inv: &'a CellOk,
    sb_eps: [&'a CellOk; 3],
    lf_eps: [&'a CellOk; 3],
}

impl<'a> Data<'a> {
    fn of(report: &'a Report, b: &cbench::Benchmark) -> Data<'a> {
        let cell = |cfg: JobConfig| report.ok(b.name, &cfg);
        let mech = JobConfig::mechanism;
        Data {
            bench: b.name,
            size_unknown: b.has_size_unknown_arrays,
            base: cell(JobConfig::baseline()),
            sb: cell(mech(Mechanism::SoftBound)),
            lf: cell(mech(Mechanism::LowFat)),
            rz: cell(mech(Mechanism::RedZone)),
            sb_unopt: cell(mech(Mechanism::SoftBound).opt(OptConfig::none())),
            lf_unopt: cell(mech(Mechanism::LowFat).opt(OptConfig::none())),
            sb_noloop: cell(mech(Mechanism::SoftBound).opt(OptConfig::no_loops())),
            lf_noloop: cell(mech(Mechanism::LowFat).opt(OptConfig::no_loops())),
            sb_meta: cell(mech(Mechanism::SoftBound).mode(MiMode::GenInvariantsOnly)),
            lf_inv: cell(mech(Mechanism::LowFat).mode(MiMode::GenInvariantsOnly)),
            sb_eps: ExtensionPoint::ALL.map(|ep| cell(mech(Mechanism::SoftBound).at(ep))),
            lf_eps: ExtensionPoint::ALL.map(|ep| cell(mech(Mechanism::LowFat).at(ep))),
        }
    }

    /// Slowdown of `m` relative to this benchmark's baseline (the
    /// figures' y-axis).
    fn slowdown(&self, m: &CellOk) -> f64 {
        m.stats.cost_total as f64 / self.base.stats.cost_total as f64
    }

    /// Mapped program memory of `m` relative to the baseline.
    fn mem_ratio(&self, m: &CellOk) -> f64 {
        m.stats.mapped_bytes as f64 / self.base.stats.mapped_bytes as f64
    }
}

/// Selects one cell of a benchmark.
type Pick = for<'a> fn(&Data<'a>) -> &'a CellOk;

/// Selects the three cells of one figure's columns.
type Pick3 = for<'a> fn(&Data<'a>) -> [&'a CellOk; 3];

fn md_table(headers: &[&str], rows: &[Vec<String>]) {
    println!("| {} |", headers.join(" | "));
    println!("|{}|", headers.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
    println!();
}

fn main() {
    // One parallel, cached sweep produces every cell of every figure.
    let report = Driver::new(benchmark_programs(), paper_sweep_configs()).run();
    let data: Vec<Data> = cbench::all().iter().map(|b| Data::of(&report, b)).collect();

    println!("# EXPERIMENTS — paper vs. measured\n");
    println!("Generated by `cargo run --release -p bench --bin report`. \"Time\" is the");
    println!("deterministic VM cost (see `memvm::cost`); all ratios are relative to the");
    println!("uninstrumented `-O3` baseline. Expected values are from the paper; this");
    println!("reproduction targets the *shapes* (who wins, where, by roughly how much),");
    println!("not absolute SPEC wall-clock numbers.\n");

    // ----- Table 2 -----
    println!("## Table 2 — wide-bounds (unsafe) dereference checks, %\n");
    println!("`*` marks configurations without a single wide check; `[sz]` marks");
    println!("benchmarks with size-less array declarations (bold in the paper).");
    println!("Measured on the dominance-only (`-noloop`) configuration — the");
    println!("paper artifact's §5.3 optimization set; loop widening would shrink");
    println!("the denominator and skew the percentages (see the check-optimization");
    println!("section below).\n");
    let fmt_pct = |m: &CellOk| {
        let (wide, total) = (m.stats.checks_wide, m.stats.checks_executed);
        let pct = if total == 0 { 0.0 } else { 100.0 * wide as f64 / total as f64 };
        if wide == 0 {
            format!("{pct:.2}\\*")
        } else {
            format!("{pct:.2}")
        }
    };
    let paper_t2: &[(&str, &str, &str)] = &[
        ("164gzip", "61.71", "0.00"),
        ("177mesa", "0.00*", "1.57"),
        ("179art", "0.00*", "0.00"),
        ("181mcf", "0.00*", "0.00"),
        ("183equake", "0.00*", "0.00"),
        ("186crafty", "0.00*", "0.00"),
        ("188ammp", "0.00*", "0.24"),
        ("197parser", "0.27", "7.14"),
        ("256bzip2", "0.00*", "0.00"),
        ("300twolf", "0.37", "2.08"),
        ("401bzip2", "0.00*", "n/a"),
        ("429mcf", "0.00*", "~54"),
        ("433milc", "0.00*", "n/a"),
        ("445gobmk", "0.66", "n/a"),
        ("456hmmer", "0.00", "n/a"),
        ("458sjeng", "0.00", "n/a"),
        ("462libquant", "0.00*", "n/a"),
        ("464h264ref", "0.00*", "n/a"),
        ("470lbm", "0.00*", "n/a"),
        ("482sphinx3", "0.00*", "n/a"),
    ];
    let rows: Vec<Vec<String>> = data
        .iter()
        .map(|d| {
            let paper = paper_t2.iter().find(|(n, _, _)| *n == d.bench).unwrap();
            vec![
                format!("{}{}", d.bench, if d.size_unknown { " [sz]" } else { "" }),
                paper.1.to_string(),
                fmt_pct(d.sb_noloop),
                paper.2.to_string(),
                fmt_pct(d.lf_noloop),
            ]
        })
        .collect();
    md_table(&["benchmark", "SB paper", "SB measured", "LF paper", "LF measured"], &rows);
    println!("(The paper's table truncates the Low-Fat column for the CPU2006 half;");
    println!("`n/a` marks entries not visible in the text. §4.6 states 429mcf ≈ 54 %.)\n");

    // ----- Figure 9 -----
    println!("## Figure 9 — execution-time overhead (optimized, VectorizerStart)\n");
    let rows: Vec<Vec<String>> = data
        .iter()
        .map(|d| {
            let (s, l) = (d.slowdown(d.sb), d.slowdown(d.lf));
            vec![
                d.bench.into(),
                format!("{s:.2}x"),
                format!("{l:.2}x"),
                if s > l { "SB slower" } else { "LF slower" }.into(),
            ]
        })
        .collect();
    md_table(&["benchmark", "SoftBound", "Low-Fat", "winner"], &rows);
    let mean = |m: Pick| geomean(&data.iter().map(|d| d.slowdown(m(d))).collect::<Vec<_>>());
    let (sb_mean, lf_mean) = (mean(|d| d.sb), mean(|d| d.lf));
    println!("Means: SoftBound **{sb_mean:.2}x** (paper 1.74x), Low-Fat **{lf_mean:.2}x** (paper 1.77x).");
    println!("Shape checks: `183equake` SoftBound-dominated (trie lookups in the hot loop, §5.2);");
    println!("`186crafty` Low-Fat-dominated (wider check sequence, §5.2).\n");

    // ----- Figures 10/11 -----
    let figures_10_11: [(&str, Pick3, &str, &str); 2] = [
        (
            "Figure 10 — SoftBound: optimized / unoptimized / metadata only",
            |d| [d.sb, d.sb_unopt, d.sb_meta],
            "metadata",
            "paper: optimized ≈ unoptimized (§5.3); metadata cost dominates for pointer-intensive benchmarks (197parser); unused metadata loads are DCE'd, underapproximating propagation cost (§5.4)",
        ),
        (
            "Figure 11 — Low-Fat: optimized / unoptimized / invariants only",
            |d| [d.lf, d.lf_unopt, d.lf_inv],
            "invariants",
            "paper: the dominance optimization's runtime impact is minor; invariant checks at pointer escapes carry the residual overhead",
        ),
    ];
    for (title, pick, third_label, paper_note) in figures_10_11 {
        println!("## {title}\n");
        let (rows, means) = slowdown_columns(&data, pick);
        md_table(&["benchmark", "optimized", "unoptimized", third_label], &rows);
        println!(
            "Means: optimized {:.2}x, unoptimized {:.2}x, {} only {:.2}x. \n{paper_note}.\n",
            means[0], means[1], third_label, means[2]
        );
    }

    // ----- Figures 12/13 -----
    let figures_12_13: [(&str, Pick3); 2] = [
        ("Figure 12 — SoftBound at the three extension points", |d| d.sb_eps),
        ("Figure 13 — Low-Fat at the three extension points", |d| d.lf_eps),
    ];
    for (title, pick) in figures_12_13 {
        println!("## {title}\n");
        let (rows, [e, s, v]) = slowdown_columns(&data, pick);
        md_table(
            &["benchmark", "ModuleOptimizerEarly", "ScalarOptimizerLate", "VectorizerStart"],
            &rows,
        );
        println!(
            "Means: early {e:.2}x, scalar-late {s:.2}x, vectorizer-start {v:.2}x — the early point carries {:.0} % more overhead (paper: ~30 %; the two late points are comparable).\n",
            100.0 * ((e - 1.0) / (v - 1.0) - 1.0)
        );
    }

    // ----- §5.3 static elimination -----
    println!("## §5.3 — checks removed by the dominance optimization\n");
    let rows: Vec<Vec<String>> = data
        .iter()
        .map(|d| {
            vec![
                d.bench.into(),
                d.sb.instr.checks_discovered.to_string(),
                d.sb.instr.checks_eliminated.to_string(),
                format!("{:.1}%", d.sb.instr.eliminated_percent()),
            ]
        })
        .collect();
    md_table(&["benchmark", "discovered", "eliminated", "share"], &rows);
    println!("paper: between 8 % (177mesa) and 50 % (256bzip2) of checks removed, minor runtime impact.\n");

    // ----- Check optimizations: dominance + the loop-aware extension -----
    println!("## Check optimizations — dominance, loop hoisting, range widening\n");
    println!("Static effect of the full §5.3-style optimization stack per mechanism:");
    println!("`eliminated` (dominance + preheader merging), `hoisted` (loop-invariant");
    println!("checks moved to the preheader), `widened` (monotone induction-variable");
    println!("checks replaced by one preheader range check). `checks full` vs");
    println!("`checks no-loop` compares *dynamic* executed checks with the loop");
    println!("optimizations on (`softbound@…`) and off (`softbound-noloop@…`) —");
    println!("outputs are byte-identical in both configurations.\n");
    let rows: Vec<Vec<String>> = data
        .iter()
        .flat_map(|d| {
            [(d.sb, d.sb_noloop, "softbound"), (d.lf, d.lf_noloop, "lowfat")].map(
                |(full, noloop, name)| {
                    let (fe, ne) = (full.stats.checks_executed, noloop.stats.checks_executed);
                    vec![
                        d.bench.into(),
                        name.into(),
                        full.instr.checks_eliminated.to_string(),
                        full.instr.checks_hoisted.to_string(),
                        full.instr.checks_widened.to_string(),
                        fe.to_string(),
                        ne.to_string(),
                        check_delta(fe, ne),
                    ]
                },
            )
        })
        .collect();
    md_table(
        &[
            "benchmark",
            "mechanism",
            "eliminated",
            "hoisted",
            "widened",
            "checks full",
            "checks no-loop",
            "dynamic Δ",
        ],
        &rows,
    );
    let loop_delta =
        |d: &Data| d.sb_noloop.stats.checks_executed.saturating_sub(d.sb.stats.checks_executed);
    let saved: u64 = data.iter().map(loop_delta).sum();
    let benches_helped = data.iter().filter(|d| loop_delta(d) > 0).count();
    println!(
        "Across the suite the loop-aware optimizations remove {saved} dynamic SoftBound checks ({benches_helped}/{} benchmarks improved) without changing any program output.\n",
        data.len()
    );

    // ----- Interprocedural elision -----
    println!("## Interprocedural elision — summary-based whole-program analysis\n");
    println!("`mir::analysis::ipo` computes per-function pointer summaries");
    println!("(provenance, byte-offset range, minimum extent) bottom-up over the");
    println!("condensed call graph; `elide_proven_checks` drops every check the");
    println!("caller-propagated facts prove in bounds. `elided` is the static");
    println!("count (`checks_elided_ipo` in `mi stats`); `checks full` vs");
    println!("`checks -noipo` compares *dynamic* executed checks with elision on");
    println!("(the default) and off (`softbound-noipo@…`), both with the loop");
    println!("optimizations enabled — so the Δ isolates the interprocedural win.");
    println!("Outputs are byte-identical in both configurations; red-zone rows");
    println!("elide only where the access provably hits the original, still-live");
    println!("allocation.\n");
    let ipo_mechs = [
        (Mechanism::SoftBound, "softbound"),
        (Mechanism::LowFat, "lowfat"),
        (Mechanism::RedZone, "redzone"),
    ];
    let noipo_cfg = |mech| JobConfig::mechanism(mech).opt(OptConfig::no_ipo());
    let noipo_report =
        Driver::new(benchmark_programs(), ipo_mechs.iter().map(|(m, _)| noipo_cfg(*m)).collect())
            .run();
    let mut cells_helped = 0usize;
    let mut total_saved: u64 = 0;
    let rows: Vec<Vec<String>> = data
        .iter()
        .flat_map(|d| {
            ipo_mechs.map(|(mech, name)| {
                let full = report.ok(d.bench, &JobConfig::mechanism(mech));
                let noipo = noipo_report.ok(d.bench, &noipo_cfg(mech));
                let (fe, ne) = (full.stats.checks_executed, noipo.stats.checks_executed);
                if fe < ne {
                    cells_helped += 1;
                    total_saved += ne - fe;
                }
                vec![
                    d.bench.into(),
                    name.into(),
                    full.instr.summaries_computed.to_string(),
                    full.instr.checks_elided_ipo.to_string(),
                    fe.to_string(),
                    ne.to_string(),
                    check_delta(fe, ne),
                ]
            })
        })
        .collect();
    md_table(
        &[
            "benchmark",
            "mechanism",
            "summaries",
            "elided",
            "checks full",
            "checks -noipo",
            "dynamic Δ",
        ],
        &rows,
    );
    println!(
        "Interprocedural elision removes {total_saved} dynamic checks beyond the loop optimizations, improving {cells_helped} of {} (program, mechanism) cells. Summaries are cached per pipeline prefix in the artifact store's `summaries` level (one entry serves every mechanism and flag combination of a snapshot) and disabled with `--no-opt-ipo` / the `-noipo` config label.\n",
        rows.len()
    );

    // ----- §5.4 cost attribution -----
    println!("## §5.4 — overhead attribution (fraction of baseline cost)\n");
    let rows: Vec<Vec<String>> = data
        .iter()
        .flat_map(|d| {
            [(d.sb, "softbound"), (d.lf, "lowfat")].map(|(m, name)| {
                let frac = |x: u64| format!("{:.2}", x as f64 / d.base.stats.cost_total as f64);
                vec![
                    d.bench.into(),
                    name.into(),
                    format!("{:.2}x", d.slowdown(m)),
                    frac(m.stats.cost_checks),
                    frac(m.stats.cost_metadata),
                    frac(m.stats.cost_allocator),
                ]
            })
        })
        .collect();
    md_table(&["benchmark", "mechanism", "total", "checks", "metadata", "allocator"], &rows);
    println!("The checks-vs-metadata split shows the same asymmetry the paper reports:");
    println!("SoftBound's metadata share grows with pointer traffic (181mcf, 197parser,");
    println!("183equake), while Low-Fat pays almost everything in the checks themselves.");

    // ----- Mechanism comparison (runtime and memory) -----
    println!("\n## Mechanism comparison — SoftBound / Low-Fat / RedZone\n");
    println!("The two paper mechanisms next to the red-zone (ASan-style) port, all at");
    println!("the paper basis configuration: execution-time overhead and mapped");
    println!("program memory, both relative to the `-O3` baseline. Low-Fat pays in");
    println!("size-class padding, red zones in guard zones; SoftBound's program memory");
    println!("is unchanged because its metadata lives outside the program address");
    println!("space (its trie and shadow-stack traffic shows up as the `metadata_loads`");
    println!("/ `metadata_stores` counters of every `mi eval` cell).\n");
    let mechs: [Pick; 3] = [|d| d.sb, |d| d.lf, |d| d.rz];
    let mut rows: Vec<Vec<String>> = data
        .iter()
        .map(|d| {
            let mut row = vec![d.bench.to_string()];
            row.extend(mechs.map(|m| format!("{:.2}x", d.slowdown(m(d)))));
            row.push(format!("{} KiB", d.base.stats.mapped_bytes / 1024));
            row.extend(mechs.map(|m| format!("{:.2}x", d.mem_ratio(m(d)))));
            row
        })
        .collect();
    let mut mean_row = vec!["MEAN (geo)".to_string()];
    mean_row.extend(mechs.map(|m| format!("{:.2}x", mean(m))));
    mean_row.push(String::new());
    mean_row.extend(mechs.map(|m| {
        let ratios: Vec<f64> = data.iter().map(|d| d.mem_ratio(m(d))).collect();
        format!("{:.2}x", geomean(&ratios))
    }));
    rows.push(mean_row);
    md_table(
        &[
            "benchmark",
            "SB time",
            "LF time",
            "RZ time",
            "baseline memory",
            "SB memory",
            "LF memory",
            "RZ memory",
        ],
        &rows,
    );
    println!("Guarantees (see `tests/redzone.rs`):\n");
    println!("* softbound: exact object bounds; catches everything spatial incl. 1-byte overflows");
    println!("* lowfat: padded object bounds; misses overflows into padding, rejects escaping OOB pointers");
    println!(
        "* redzone: adjacent overflows only; silent once an access clears the 16-byte guard zone"
    );

    // ----- §5.1.2 wrapper-check ablation -----
    println!("\n## §5.1.2 — wrapper-check ablation\n");
    println!("The paper disables the additional safety checks inside SoftBound's libc");
    println!("wrappers to keep the runtime comparison fair. This ablation turns them");
    println!("on (`sb_wrapper_checks`; the wrappers cover the `memcpy`/`memset`");
    println!("intrinsics) to show what that choice is worth.\n");
    // The knob is not part of the configuration label, so the wrapper-on
    // column gets a run of its own instead of sharing the paper sweep.
    let wrapped_cfg = JobConfig::mechanism(Mechanism::SoftBound).configure(|c| {
        c.sb_wrapper_checks = true;
    });
    let wrapped_report = Driver::new(benchmark_programs(), vec![wrapped_cfg.clone()]).run();
    let (mut offs, mut ons) = (vec![], vec![]);
    let mut rows: Vec<Vec<String>> = data
        .iter()
        .map(|d| {
            let on = wrapped_report.ok(d.bench, &wrapped_cfg);
            let (so, sn) = (d.slowdown(d.sb), d.slowdown(on));
            offs.push(so);
            ons.push(sn);
            let extra = on.stats.checks_executed as i64 - d.sb.stats.checks_executed as i64;
            vec![d.bench.into(), format!("{so:.2}x"), format!("{sn:.2}x"), format!("{extra:+}")]
        })
        .collect();
    rows.push(vec![
        "MEAN (geo)".into(),
        format!("{:.2}x", geomean(&offs)),
        format!("{:.2}x", geomean(&ons)),
        String::new(),
    ]);
    md_table(&["benchmark", "checks off (paper)", "checks on", "extra checks"], &rows);
    println!("Wrapper checks trade a little runtime for catching overflowing");
    println!("`memcpy`/`memset` ranges inside the (uninstrumented) libc (§4.3, Fig. 6).");

    // ----- Extensions beyond the paper -----
    println!("\n## Extensions beyond the paper\n");
    println!(
        "* **Third mechanism (red zones, ASan-style)**: geometric-mean slowdown **{:.2}x** — cheaper than both paper mechanisms, with the weaker guarantees §2.1 describes (misses any overflow that clears the 16-byte guard zone; see `tests/redzone.rs` and the mechanism comparison above).",
        mean(|d| d.rz)
    );
    let mem_lf = geomean(&data.iter().map(|d| d.mem_ratio(d.lf)).collect::<Vec<_>>());
    println!(
        "* **Memory overhead**: Low-Fat's size-class padding maps **{mem_lf:.2}x** the baseline's program memory (geo-mean); SoftBound's program memory is unchanged (its metadata is disjoint); red zones sit in between (per-benchmark ratios in the mechanism comparison above)."
    );
    println!(
        "* **Wrapper checks (§5.1.2)** and **Appendix-B member-bounds narrowing** are implemented behind `MiConfig` flags with a dedicated section/tests (the §5.1.2 ablation above, `tests/narrowing.rs`)."
    );

    // ----- Evaluation driver -----
    println!("\n## Evaluation driver\n");
    println!("This report was produced by a single run of the `evald` driver");
    println!("(`bench::driver`): the full sweep above is one job matrix of");
    let c = &report.cache;
    println!(
        "{} benchmarks × {} configurations = {} cells, executed on worker",
        report.programs.len(),
        report.configs.len(),
        report.cells.len()
    );
    println!("threads; every cell compiles through the shared levels of one");
    println!("per-run artifact store (`bench::store::ArtifactStore`):\n");
    println!(
        "* frontend level: {} compiles served {} cells ({} reuses);",
        c.frontend_compiles,
        report.cells.len(),
        c.frontend_reuses
    );
    println!(
        "* pipeline-prefix level (per benchmark × opt level × extension point, with its interprocedural summaries): {} prefixes served {} reuses.",
        c.prefix_compiles, c.prefix_reuses
    );
    println!("\nInstrumentation runs afresh in every cell: nothing per cell is cached.");
    println!("\nThe same sweep is available as machine-readable JSON");
    println!("(`schema: evald-report/2`, deterministic ordering — byte-identical for");
    println!("any `--jobs` value) via `mi eval --jobs N --out report.json`. Its matrix");
    println!("is `paper_sweep_configs`; only the `-noipo` and wrapper-check columns");
    println!("come from two small runs of their own.");
}

/// Per-benchmark slowdowns of the three cells `pick` selects, plus each
/// column's geometric mean.
fn slowdown_columns(data: &[Data], pick: Pick3) -> (Vec<Vec<String>>, [f64; 3]) {
    let mut columns: [Vec<f64>; 3] = Default::default();
    let rows = data
        .iter()
        .map(|d| {
            let mut row = vec![d.bench.to_string()];
            for (i, m) in pick(d).into_iter().enumerate() {
                let s = d.slowdown(m);
                columns[i].push(s);
                row.push(format!("{s:.2}x"));
            }
            row
        })
        .collect();
    (rows, columns.map(|c| geomean(&c)))
}

/// Relative drop in executed checks from `without` (the optimization
/// off) to `with` (on), or `-` when nothing executed.
fn check_delta(with: u64, without: u64) -> String {
    if without == 0 {
        "-".to_string()
    } else {
        format!("-{:.1}%", 100.0 * (without.saturating_sub(with)) as f64 / without as f64)
    }
}
