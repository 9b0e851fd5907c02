//! End-to-end tests of the `mi` binary.

use std::io::Write as _;
use std::process::Command;

fn mi() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mi"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("mi_cli_test_{name}"));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(content.as_bytes()).unwrap();
    path
}

const BUGGY: &str = r#"
long main(void) {
    long *p = (long*)malloc(8 * sizeof(long));
    p[8] = 1;
    print_i64(7);
    return 0;
}
"#;

const CLEAN: &str = r#"
long main(void) {
    long a[4];
    for (long i = 0; i < 4; i += 1) a[i] = i;
    print_i64(a[0] + a[3]);
    return 3;
}
"#;

#[test]
fn run_clean_program_prints_and_exits() {
    let path = write_temp("clean.c", CLEAN);
    let out = mi().args(["run", path.to_str().unwrap(), "--mech", "lowfat"]).output().unwrap();
    assert_eq!(out.status.code(), Some(3));
    assert_eq!(String::from_utf8_lossy(&out.stdout).trim(), "3");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("checks"), "{err}");
}

#[test]
fn run_buggy_program_reports_violation() {
    let path = write_temp("buggy.c", BUGGY);
    let out = mi().args(["run", path.to_str().unwrap(), "--mech", "softbound"]).output().unwrap();
    assert_ne!(out.status.code(), Some(0));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("softbound: deref-check violation"), "{err}");
}

#[test]
fn check_summarizes_all_mechanisms() {
    let path = write_temp("check.c", BUGGY);
    let out = mi().args(["check", path.to_str().unwrap()]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["baseline", "softbound", "lowfat", "redzone"] {
        assert!(stdout.contains(needle), "{stdout}");
    }
    // p[8] is inside low-fat padding: only exact bounds and the red zone
    // report, so the overall verdict is non-zero.
    assert_ne!(out.status.code(), Some(0));
}

#[test]
fn ir_prints_instrumented_module() {
    let path = write_temp("ir.c", CLEAN);
    let out = mi()
        .args(["ir", path.to_str().unwrap(), "--mech", "lowfat", "--ep", "early"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("define i64 @main"), "{stdout}");
    assert!(stdout.contains("__lf_check"), "{stdout}");
    // The printed module must parse back.
    mir::parser::parse_module(&stdout).unwrap();
}

#[test]
fn stats_reports_static_and_dynamic() {
    let path = write_temp("stats.c", CLEAN);
    let out = mi().args(["stats", path.to_str().unwrap(), "--mech", "softbound"]).output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("checks placed"), "{stdout}");
    assert!(stdout.contains("cost"), "{stdout}");
    assert!(out.status.success());
}

#[test]
fn bad_option_reports_usage() {
    let path = write_temp("usage.c", CLEAN);
    let out = mi().args(["run", path.to_str().unwrap(), "--mech", "bogus"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("bad --mech"), "{err}");
}

#[test]
fn frontend_error_is_reported_with_location() {
    let path = write_temp("broken.c", "long main(void) {\n  return nope;\n}");
    let out = mi().args(["run", path.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn eval_report_is_byte_identical_across_job_counts() {
    let path = write_temp("eval_det.c", CLEAN);
    let out1 = std::env::temp_dir().join("mi_cli_test_eval_j1.json");
    let out8 = std::env::temp_dir().join("mi_cli_test_eval_j8.json");
    for (jobs, out) in [("1", &out1), ("8", &out8)] {
        let st = mi()
            .args(["eval", path.to_str().unwrap(), "--jobs", jobs, "--out", out.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    }
    let j1 = std::fs::read_to_string(&out1).unwrap();
    let j8 = std::fs::read_to_string(&out8).unwrap();
    assert_eq!(j1, j8, "eval report must not depend on worker count");
    assert!(j1.contains("\"schema\": \"evald-report/2\""), "{j1}");
    assert!(j1.contains("\"frontend_reuses\": 13"), "{j1}");
}

#[test]
fn run_buggy_program_names_access_and_allocation_lines() {
    let path = write_temp("prov.c", BUGGY);
    let out = mi().args(["run", path.to_str().unwrap(), "--mech", "softbound"]).output().unwrap();
    assert_ne!(out.status.code(), Some(0));
    let err = String::from_utf8_lossy(&out.stderr);
    // ASan-style provenance: the access line (p[8] = 1 on line 4) and the
    // allocation line (malloc on line 3), both attributed to the file.
    assert!(err.contains("8-byte write at mi_cli_test_prov.c:4"), "{err}");
    assert!(
        err.contains("overflows 64-byte heap object allocated at mi_cli_test_prov.c:3"),
        "{err}"
    );
    assert!(err.contains("in @main (line 4)"), "{err}");
}

#[test]
fn profile_ranks_sites_and_reconciles() {
    let path = write_temp("profile.c", CLEAN);
    let out = mi().args(["profile", path.to_str().unwrap(), "--mech", "lowfat"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(= cost_checks)"), "{stdout}");
    assert!(stdout.contains("mi_cli_test_profile.c:"), "{stdout}");
    assert!(stdout.contains("deref"), "{stdout}");

    let out = mi()
        .args(["profile", path.to_str().unwrap(), "--mech", "lowfat", "--top", "2", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"schema\": \"mi-profile/1\""), "{json}");
    assert!(json.contains("\"config\": \"lowfat@O3@VectorizerStart\""), "{json}");
    assert!(json.contains("\"source\": \"mi_cli_test_profile.c:"), "{json}");
    // --top 2 caps the ranked list.
    assert!(!json.contains("\"rank\": 3"), "{json}");
}

#[test]
fn run_trace_writes_chrome_trace_json() {
    let path = write_temp("trace.c", CLEAN);
    let trace = std::env::temp_dir().join("mi_cli_test_run_trace.json");
    let out = mi()
        .args(["run", path.to_str().unwrap(), "--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = std::fs::read_to_string(&trace).unwrap();
    assert!(doc.contains("\"traceEvents\""), "{doc}");
    assert!(doc.contains("\"ph\":\"X\""), "{doc}");
    assert!(doc.contains("plugin@VectorizerStart"), "{doc}");
}

#[test]
fn run_connect_rejects_options_the_job_label_cannot_carry() {
    // `--narrow` and `--wrapper-checks` are not part of the configuration
    // label a job travels as, so a daemon would run a different
    // configuration: usage error before any connection is attempted.
    let path = write_temp("connect.c", CLEAN);
    let socket = std::env::temp_dir().join("mi_cli_test_no_such_daemon.sock");
    for flag in ["--narrow", "--wrapper-checks"] {
        let out = mi()
            .args(["run", path.to_str().unwrap(), "--mech", "softbound", flag])
            .args(["--connect", socket.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("not available with --connect"), "{flag}: {err}");
    }
}

#[test]
fn eval_trace_is_byte_identical_across_job_counts() {
    let path = write_temp("eval_trace.c", CLEAN);
    let t1 = std::env::temp_dir().join("mi_cli_test_eval_trace_j1.json");
    let t8 = std::env::temp_dir().join("mi_cli_test_eval_trace_j8.json");
    for (jobs, trace) in [("1", &t1), ("8", &t8)] {
        let st = mi()
            .args([
                "eval",
                path.to_str().unwrap(),
                "--jobs",
                jobs,
                "--out",
                std::env::temp_dir().join("mi_cli_test_eval_trace_rep.json").to_str().unwrap(),
                "--trace",
                trace.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(st.status.success(), "{}", String::from_utf8_lossy(&st.stderr));
    }
    let d1 = std::fs::read_to_string(&t1).unwrap();
    let d8 = std::fs::read_to_string(&t8).unwrap();
    assert_eq!(d1, d8, "eval trace must not depend on worker count");
    assert!(d1.contains("\"traceEvents\""), "{d1}");
    assert!(d1.contains("/prefix@O3@VectorizerStart\""), "{d1}");
    assert!(d1.contains("/softbound@O3@VectorizerStart\""), "{d1}");
}

#[test]
fn eval_reports_violations_as_cells_not_failures() {
    let path = write_temp("eval_buggy.c", BUGGY);
    let out = mi().args(["eval", path.to_str().unwrap(), "--jobs", "2"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"ok\": false"), "{json}");
    assert!(json.contains("deref-check"), "{json}");
    // The baseline cell of the same program still succeeds.
    assert!(json.contains("\"ok\": true"), "{json}");
}
