//! End-to-end tests of the `rlrpd` command-line tool.

use std::process::Command;

fn rlrpd(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rlrpd"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn program(path: &str) -> String {
    format!("{}/examples/programs/{path}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn run_executes_and_verifies() {
    let (ok, stdout, stderr) = rlrpd(&[
        "run",
        &program("tracking.rlp"),
        "--procs",
        "4",
        "--strategy",
        "nrd",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("classification:"), "{stdout}");
    assert!(
        stdout.contains("verified against sequential execution"),
        "{stdout}"
    );
    assert!(stdout.contains("speedup"), "{stdout}");
}

#[test]
fn run_with_timeline_renders_the_chart() {
    let (ok, stdout, _) = rlrpd(&[
        "run",
        &program("tracking.rlp"),
        "--procs",
        "4",
        "--timeline",
    ]);
    assert!(ok);
    assert!(stdout.contains("stage  0"), "{stdout}");
    assert!(stdout.contains("wasted speculation"), "{stdout}");
}

#[test]
fn classify_prints_the_pass_decisions() {
    let (ok, stdout, _) = rlrpd(&["classify", &program("tracking.rlp")]);
    assert!(ok);
    assert!(stdout.contains("TESTED"));
    assert!(stdout.contains("UNTESTED"));
    assert!(stdout.contains("REDUCTION(+)"));
}

/// The run says whether the VM's strips ran, and `classify` says why
/// not when lowering refused them.
#[test]
fn the_report_says_whether_strips_ran_and_classify_says_why_not() {
    let (ok, stdout, _) = rlrpd(&[
        "run",
        &program("tracking.rlp"),
        "--procs",
        "2",
        "--report",
        "--format",
        "json",
    ]);
    assert!(ok);
    assert!(
        stdout.contains("strips: 16 iterations per dispatch"),
        "{stdout}"
    );
    let line = stdout
        .lines()
        .find(|l| l.starts_with("strips: ") && l.contains("batched"))
        .unwrap_or_else(|| panic!("no strips line in the report:\n{stdout}"));
    assert!(!line.starts_with("strips: 0 iterations"), "{line}");
    let json = stdout.lines().last().unwrap();
    assert!(json.contains(",\"batched_iters\":"), "{json}");
    assert!(!json.contains("\"batched_iters\":0,"), "{json}");
    assert!(json.trim_end().ends_with('}'), "{json}");
    let tail = &json[json.find("\"fork_joins\"").expect("fork_joins")..];
    assert!(
        tail.find("\"batched_iters\"") < tail.find("\"scalar_strips\""),
        "the two counters are the last keys: {tail}"
    );

    // A proven short dependence: refused at lowering, never probed.
    let dir = std::env::temp_dir().join("rlrpd_cli_strips");
    std::fs::create_dir_all(&dir).unwrap();
    let chain = dir.join("chain_d3.rlp");
    std::fs::write(
        &chain,
        "array A[512] = 1;\nfor i in 3..512 { A[i] = A[i - 3] * 0.75 + i; }\n",
    )
    .unwrap();
    let chain = chain.to_str().unwrap();
    let (ok, stdout, _) = rlrpd(&["classify", chain]);
    assert!(ok);
    assert!(
        stdout.contains("strips: off — 'A' carries a Must dependence at distance 3 < 16"),
        "{stdout}"
    );
    let (ok, stdout, _) = rlrpd(&[
        "run",
        chain,
        "--procs",
        "2",
        "--doacross",
        "off",
        "--format",
        "json",
    ]);
    assert!(ok, "{stdout}");
    let json = stdout.lines().last().unwrap();
    assert!(
        json.ends_with("\"batched_iters\":0,\"scalar_strips\":0}"),
        "{json}"
    );
    let (_, stdout, _) = rlrpd(&["classify", &program("premature_exit.rlp")]);
    assert!(stdout.contains("strips: off — 'break if'"), "{stdout}");
}

#[test]
fn ddg_reports_wavefronts_and_saves_schedules() {
    let dir = std::env::temp_dir().join("rlrpd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let save = dir.join("schedule.bin");
    let save_str = save.to_str().unwrap();
    let (ok, stdout, stderr) = rlrpd(&[
        "ddg",
        &program("lu_sparse.rlp"),
        "--procs",
        "4",
        "--save",
        save_str,
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("wavefronts"), "{stdout}");
    // The saved artifact round-trips through the persistence layer.
    let bytes = std::fs::read(&save).unwrap();
    let schedule = rlrpd::WavefrontSchedule::from_bytes(&bytes).unwrap();
    assert!(schedule.depth() > 1);
    std::fs::remove_file(&save).ok();
}

#[test]
fn premature_exit_program_reports_the_exit() {
    let (ok, stdout, _) = rlrpd(&["run", &program("premature_exit.rlp"), "--procs", "8"]);
    assert!(ok);
    assert!(stdout.contains("exited at iteration 613"), "{stdout}");
}

#[test]
fn multi_loop_program_runs_phase_by_phase() {
    let (ok, stdout, stderr) = rlrpd(&["run", &program("two_phase.rlp"), "--procs", "4"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("loop 0:"), "{stdout}");
    assert!(stdout.contains("loop 1:"), "{stdout}");
    assert!(stdout.contains("whole-program speedup"), "{stdout}");
    assert!(
        stdout.contains("verified against sequential execution"),
        "{stdout}"
    );
}

#[test]
fn ddg_rejects_multi_loop_programs() {
    let (ok, _, stderr) = rlrpd(&["ddg", &program("two_phase.rlp")]);
    assert!(!ok);
    assert!(stderr.contains("single-loop"), "{stderr}");
}

#[test]
fn counter_program_uses_the_induction_scheme() {
    let (ok, stdout, stderr) = rlrpd(&["run", &program("extend.rlp"), "--procs", "8"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("induction program"), "{stdout}");
    assert!(stdout.contains("range test PASSED"), "{stdout}");
    // Checked against sequential execution like every other `run`.
    assert!(
        stdout.contains("verified against sequential execution ✓"),
        "{stdout}"
    );
}

#[test]
fn fmt_prints_a_reparseable_canonical_form() {
    let (ok, stdout, stderr) = rlrpd(&["fmt", &program("two_phase.rlp")]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("for i in 0..256 {"), "{stdout}");
    // The output must itself be a valid program.
    assert!(rlrpd::lang::parse(&stdout).is_ok(), "{stdout}");
}

#[test]
fn model_subcommand_ranks_policies() {
    let (ok, stdout, _) = rlrpd(&["model"]);
    assert!(ok);
    assert!(stdout.contains("Never"));
    assert!(stdout.contains("Adaptive"));
    assert!(stdout.contains("Always"));
}

#[test]
fn bad_inputs_fail_cleanly() {
    let (ok, _, stderr) = rlrpd(&["run", "/nonexistent.rlp"]);
    assert!(!ok);
    assert!(stderr.contains("rlrpd:"), "{stderr}");

    let (ok, _, stderr) = rlrpd(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"), "{stderr}");

    let (ok, _, stderr) = rlrpd(&["run", &program("tracking.rlp"), "--strategy", "warp"]);
    assert!(!ok);
    assert!(stderr.contains("unknown strategy"), "{stderr}");
}

#[test]
fn run_report_carries_the_static_dependence_prediction() {
    // lu_sparse has affine evidence alongside its indirection, so the
    // single-loop CLI path must stamp the predicted first sink into
    // the report next to the observed restart point.
    let (ok, stdout, stderr) =
        rlrpd(&["run", &program("lu_sparse.rlp"), "--procs", "4", "--report"]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("first dependence: predicted iteration"),
        "{stdout}"
    );
    assert!(stdout.contains("observed iteration"), "{stdout}");
}

#[test]
fn analyze_emits_span_carrying_diagnostics_on_every_example() {
    for example in [
        "tracking.rlp",
        "tracking_large.rlp",
        "lu_sparse.rlp",
        "premature_exit.rlp",
        "two_phase.rlp",
        "extend.rlp",
    ] {
        let (ok, stdout, stderr) = rlrpd(&["analyze", &program(example)]);
        assert!(ok, "{example}: {stderr}");
        assert!(
            stdout.contains("--> "),
            "{example}: every diagnostic carries a source span\n{stdout}"
        );
        assert!(stdout.contains("analyze:"), "{example}: {stdout}");
    }
}

#[test]
fn analyze_text_output_names_the_lints() {
    let (ok, stdout, _) = rlrpd(&["analyze", &program("tracking.rlp")]);
    assert!(ok);
    assert!(stdout.contains("warning[guard-forced-test]"), "{stdout}");
    assert!(stdout.contains("note[reduction-detected]"), "{stdout}");
    assert!(stdout.contains("note[shadow-selection]"), "{stdout}");
}

#[test]
fn analyze_deny_warnings_turns_warnings_into_exit_1() {
    // tracking.rlp has a guard-forced-test warning.
    assert_eq!(exit_code(&["analyze", &program("tracking.rlp")]), 0);
    assert_eq!(
        exit_code(&["analyze", &program("tracking.rlp"), "--deny-warnings"]),
        1
    );
    // premature_exit.rlp is clean (notes only) — denied warnings don't
    // touch notes.
    assert_eq!(
        exit_code(&["analyze", &program("premature_exit.rlp"), "--deny-warnings"]),
        0
    );
}

#[test]
fn analyze_usage_and_parse_errors_exit_64() {
    let path = scratch("unparseable.rlp");
    std::fs::write(&path, "array A[8;\nfor i in {").unwrap();
    assert_eq!(exit_code(&["analyze", path.to_str().unwrap()]), 64);
    std::fs::remove_file(&path).ok();
    assert_eq!(
        exit_code(&["analyze", &program("tracking.rlp"), "--format", "yaml"]),
        64
    );
    assert_eq!(exit_code(&["analyze"]), 64);
}

#[test]
fn analyze_json_output_is_structured() {
    let (ok, stdout, stderr) = rlrpd(&[
        "analyze",
        &program("tracking.rlp"),
        "--format",
        "json",
        "--procs",
        "4",
    ]);
    assert!(ok, "{stderr}");
    for key in [
        "\"diagnostics\":",
        "\"level\":",
        "\"code\":",
        "\"line\":",
        "\"col\":",
        "\"loop\":",
        "\"message\":",
        "\"errors\":",
        "\"warnings\":",
        "\"notes\":",
    ] {
        assert!(stdout.contains(key), "missing {key} in\n{stdout}");
    }
    assert!(
        stdout.contains("\"code\":\"guard-forced-test\""),
        "{stdout}"
    );
    // Hand-rolled JSON must still be well-formed enough for a strict
    // brace/bracket/quote balance check.
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escape = false;
    for c in stdout.chars() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth -= 1,
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced JSON:\n{stdout}");
    assert!(!in_str, "unterminated string:\n{stdout}");
}

#[test]
fn run_reports_the_bytecode_backend_by_default() {
    let (ok, stdout, stderr) = rlrpd(&["run", &program("tracking.rlp"), "--procs", "4"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("backend: bytecode VM"), "{stdout}");
    assert!(
        stdout.contains("verified against sequential execution"),
        "{stdout}"
    );
}

#[test]
fn no_compile_escape_hatch_runs_the_tree_walk_interpreter() {
    let (ok, stdout, stderr) = rlrpd(&[
        "run",
        &program("tracking.rlp"),
        "--procs",
        "4",
        "--no-compile",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("backend: tree-walk interpreter"),
        "{stdout}"
    );
    assert!(
        stdout.contains("verified against sequential execution"),
        "{stdout}"
    );
}

#[test]
fn no_compile_reaches_induction_programs_too() {
    let (ok, stdout, _) = rlrpd(&["run", &program("extend.rlp"), "--no-compile"]);
    assert!(ok);
    assert!(
        stdout.contains("backend: tree-walk interpreter"),
        "{stdout}"
    );
    let (ok, stdout, _) = rlrpd(&["run", &program("extend.rlp")]);
    assert!(ok);
    assert!(stdout.contains("backend: bytecode VM"), "{stdout}");
}

/// Every example program's disassembly matches its golden snapshot in
/// `examples/bytecode/` — regenerate with
/// `rlrpd analyze <file> --emit bytecode > examples/bytecode/<stem>.txt`
/// after an intentional lowering change.
#[test]
fn emit_bytecode_matches_the_golden_snapshots() {
    let dir = format!("{}/examples/programs", env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("examples dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rlp") {
            continue;
        }
        let stem = path.file_stem().unwrap().to_str().unwrap();
        let (ok, stdout, stderr) =
            rlrpd(&["analyze", path.to_str().unwrap(), "--emit", "bytecode"]);
        assert!(ok, "{stem}: {stderr}");
        let golden_path = format!(
            "{}/examples/bytecode/{stem}.txt",
            env!("CARGO_MANIFEST_DIR")
        );
        let golden =
            std::fs::read_to_string(&golden_path).unwrap_or_else(|e| panic!("{golden_path}: {e}"));
        assert_eq!(
            stdout, golden,
            "{stem}: disassembly drifted from its golden snapshot; if the \
             lowering change is intentional, regenerate {golden_path}"
        );
        checked += 1;
    }
    assert!(checked >= 6, "only {checked} example programs found");
}

#[test]
fn emit_bytecode_annotates_marking_and_elision() {
    let (ok, stdout, _) = rlrpd(&["analyze", &program("tracking.rlp"), "--emit", "bytecode"]);
    assert!(ok);
    assert!(stdout.contains("ld.mark"), "{stdout}");
    assert!(stdout.contains("fused write-mark of STATE"), "{stdout}");
    assert!(
        stdout.contains("fused reduction-mark of ENERGY"),
        "{stdout}"
    );
    assert!(
        stdout.contains("unmarked (shadow elided: statically disjoint)"),
        "{stdout}"
    );
    // Spans survive into the listing.
    assert!(stdout.contains("@ "), "{stdout}");
}

#[test]
fn emit_rejects_unknown_formats_with_64() {
    assert_eq!(
        exit_code(&["analyze", &program("tracking.rlp"), "--emit", "wasm"]),
        64
    );
}

/// Exit code of one invocation (panics if the process was signalled).
fn exit_code(args: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_rlrpd"))
        .args(args)
        .output()
        .expect("binary runs")
        .status
        .code()
        .expect("not signalled")
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("rlrpd_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

#[test]
fn usage_errors_exit_64() {
    assert_eq!(exit_code(&["frobnicate"]), 64);
    assert_eq!(exit_code(&[]), 64);
    assert_eq!(
        exit_code(&["run", &program("tracking.rlp"), "--strategy", "warp"]),
        64
    );
}

#[test]
fn genuine_program_fault_exits_2() {
    // A[i - 1] is a negative subscript at i = 0: the iteration panics
    // even when re-executed from a fully committed prefix, so the
    // containment layer classifies it as a genuine program fault.
    let path = scratch("faulty.rlp");
    std::fs::write(
        &path,
        "array A[64];\ncost 10;\nfor i in 0..64 {\n    A[i - 1] = 1;\n}\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_rlrpd"))
        .args(["run", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("program fault"), "{stderr}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn stage_limit_exits_3() {
    // tracking.rlp needs more than one stage under NRD; a cap of 1
    // must abort with the StageLimit code.
    assert_eq!(
        exit_code(&[
            "run",
            &program("tracking.rlp"),
            "--strategy",
            "nrd",
            "--max-stages",
            "1",
        ]),
        3
    );
}

#[test]
fn journal_corruption_exits_4() {
    let path = scratch("garbage-journal.bin");
    std::fs::write(&path, b"this is not a journal").unwrap();
    assert_eq!(
        exit_code(&[
            "run",
            &program("tracking.rlp"),
            "--journal",
            path.to_str().unwrap(),
            "--resume",
        ]),
        4
    );

    // So is a journal whose records are intact but not this run's: one
    // that names an array the program does not declare.
    let prog = program("tracking.rlp");
    let journal = path.to_str().unwrap();
    std::fs::remove_file(&path).ok();
    let (ok, _, stderr) = rlrpd(&["run", &prog, "--procs", "4", "--journal", journal]);
    assert!(ok, "{stderr}");
    let mut j = rlrpd::Journal::open(&path).unwrap();
    let stage = j.commits().len();
    j.append_commit(rlrpd::core::CommitRecord {
        stage,
        frontier: j.commits()[stage - 1].frontier,
        exited_at: None,
        fallback: false,
        arrays: vec![(9, vec![(0, 0)])],
    })
    .unwrap();
    drop(j);
    let resume = [
        "run",
        &prog,
        "--procs",
        "4",
        "--journal",
        journal,
        "--resume",
    ];
    let (ok, _, stderr) = rlrpd(&resume);
    assert!(!ok && stderr.contains("names array 9"), "{stderr}");
    assert_eq!(exit_code(&resume), 4);
    std::fs::remove_file(&path).ok();
}

#[test]
fn journaled_run_resumes_after_a_torn_tail() {
    let path = scratch("resume-journal.bin");
    let path_str = path.to_str().unwrap().to_owned();
    let (ok, stdout, stderr) = rlrpd(&[
        "run",
        &program("tracking.rlp"),
        "--procs",
        "4",
        "--journal",
        &path_str,
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("journal:"), "{stdout}");

    // Tear the tail (a crash mid-append) and resume: the run must
    // complete from the recovered frontier and still verify against
    // sequential execution.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
    let (ok, stdout, stderr) = rlrpd(&[
        "run",
        &program("tracking.rlp"),
        "--procs",
        "4",
        "--journal",
        &path_str,
        "--resume",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("resumed from iteration"), "{stdout}");
    assert!(
        stdout.contains("verified against sequential execution"),
        "{stdout}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn worker_subcommand_rejects_arguments_with_64() {
    assert_eq!(exit_code(&["worker", "extra"]), 64);
}

#[test]
fn worker_with_garbage_on_stdin_exits_64() {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_rlrpd"))
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // A well-framed record that is not a hello: protocol error.
    child
        .stdin
        .take()
        .unwrap()
        .write_all(&[5, 0, 0, 0, 1, 2, 3, 4, 5])
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(64), "{out:?}");
}

#[test]
fn worker_abandoned_at_launch_exits_0() {
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_rlrpd"))
        .arg("worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdin.take()); // supervisor hangs up before the hello
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0));
}

#[test]
fn dist_flag_misuse_exits_64() {
    let prog = program("tracking.rlp");
    assert_eq!(exit_code(&["run", &prog, "--dist-workers", "zero"]), 64);
    assert_eq!(exit_code(&["run", &prog, "--dist-workers", "0"]), 64);
    assert_eq!(
        exit_code(&[
            "run",
            &prog,
            "--dist-workers",
            "1",
            "--dist-fault",
            "melt:1"
        ]),
        64
    );
    assert_eq!(
        exit_code(&["run", &prog, "--dist-workers", "1", "--dist-fault", "kill"]),
        64
    );
}

/// A `--flag` the subcommand does not know is a usage error that names
/// it — not a word to skip, which would run a misspelt `--pooled`
/// simulated and a retired `--threads` as if it were still there.
#[test]
fn unknown_flags_exit_64_and_are_named() {
    let prog = program("tracking.rlp");
    let rows: [(&[&str], &str); 5] = [
        (&["run", &prog, "--threads"], "--threads"),
        (&["run", &prog, "--pooledd"], "--pooledd"),
        // A flag that takes a value is known per subcommand too.
        (
            &["fmt", &prog, "--dist-workers", "3", "--journal", "X"],
            "--dist-workers",
        ),
        (
            &["classify", &prog, "--strategy", "bogus", "--max-jobs", "x"],
            "--strategy",
        ),
        // Never read by anything; the real flag is `--shadow-budget`.
        (
            &[
                "submit",
                &prog,
                "--connect",
                "127.0.0.1:1",
                "--key",
                "9",
                "--budget",
                "1M",
            ],
            "--budget",
        ),
    ];
    for (args, flag) in rows {
        let out = Command::new(env!("CARGO_BIN_EXE_rlrpd"))
            .args(args)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(64), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag '{flag}'")),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
    }
    // Known to one subcommand is not known to all of them.
    assert_eq!(exit_code(&["classify", &prog, "--report"]), 64);
    assert_eq!(
        exit_code(&["serve", "--state-dir", "/nonexistent", "--pooled"]),
        64
    );
}

#[test]
fn cross_host_flag_misuse_exits_64() {
    let prog = program("tracking.rlp");
    // Malformed endpoint lists.
    assert_eq!(exit_code(&["run", &prog, "--dist-workers", "local:0"]), 64);
    assert_eq!(exit_code(&["run", &prog, "--dist-workers", "local:x"]), 64);
    assert_eq!(exit_code(&["run", &prog, "--dist-workers", ",local"]), 64);
    assert_eq!(
        exit_code(&["run", &prog, "--dist-workers", "host:4000:0"]),
        64
    );
    // The heartbeat knobs are distributed-only and must be coherent
    // with the failure-detection window.
    assert_eq!(
        exit_code(&[
            "run",
            &prog,
            "--dist-workers",
            "1",
            "--heartbeat-interval",
            "0",
        ]),
        64
    );
    assert_eq!(
        exit_code(&[
            "run",
            &prog,
            "--dist-workers",
            "1",
            "--heartbeat-interval",
            "2",
            "--block-deadline",
            "1",
        ]),
        64,
        "two heartbeats must fit inside the failure-detection window"
    );
}

#[test]
fn worker_listen_on_a_bad_address_exits_64() {
    assert_eq!(exit_code(&["worker", "--listen", "not-an-address"]), 64);
    assert_eq!(
        exit_code(&["worker", "--listen", "127.0.0.1:0", "extra"]),
        64
    );
}

#[test]
fn chaos_proxy_misuse_exits_64() {
    assert_eq!(exit_code(&["chaos-proxy"]), 64);
    assert_eq!(exit_code(&["chaos-proxy", "--listen", "127.0.0.1:0"]), 64);
    assert_eq!(
        exit_code(&[
            "chaos-proxy",
            "--listen",
            "127.0.0.1:0",
            "--connect",
            "127.0.0.1:1",
            "--fault",
            "melt:1",
        ]),
        64,
        "unknown fault kinds are usage errors"
    );
    assert_eq!(
        exit_code(&[
            "chaos-proxy",
            "--listen",
            "127.0.0.1:0",
            "--connect",
            "127.0.0.1:1",
            "--fault",
            "refuse:0",
            "--seed",
            "7",
        ]),
        64,
        "--fault and --seed are mutually exclusive"
    );
}

/// End to end over the CLI surface: a standalone `rlrpd worker --listen`
/// host plus a local subprocess slot composed in one fleet through
/// `--dist-workers HOST:PORT:N,local`, with an explicit heartbeat.
#[test]
fn cross_host_run_composes_tcp_and_local_workers() {
    use std::io::BufRead;
    use std::process::Stdio;
    let mut host = Command::new(env!("CARGO_BIN_EXE_rlrpd"))
        .args(["worker", "--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn listener");
    let banner = std::io::BufReader::new(host.stdout.take().expect("listener stdout"))
        .lines()
        .next()
        .expect("listener banner")
        .expect("read banner");
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();
    let (ok, stdout, stderr) = rlrpd(&[
        "run",
        &program("tracking.rlp"),
        "--procs",
        "4",
        "--dist-workers",
        &format!("{addr}:2,local"),
        "--heartbeat-interval",
        "0.05",
    ]);
    let _ = host.kill();
    let _ = host.wait();
    assert!(ok, "{stderr}");
    assert!(stdout.contains("distributed: 3 workers"), "{stdout}");
    assert!(
        stdout.contains("verified against sequential execution"),
        "{stdout}"
    );
}

/// `rlrpd submit` shows the job's progress while it runs: one `commit
/// frontier` line per commit record on the *first* submit, which
/// follows the job live — as many as on a second submit of the same
/// key, which is caught up from the finished job's journal file, and as
/// the final line counts frames less the header. (The first used to
/// print none: a live frame went out framed twice.)
#[test]
fn submit_prints_a_progress_line_per_commit_while_the_job_runs() {
    use std::io::BufRead;
    use std::process::Stdio;
    let state = std::env::temp_dir().join(format!("rlrpd-cli-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_rlrpd"))
        .args(["serve", "--listen", "127.0.0.1:0", "--state-dir"])
        .arg(&state)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let banner = std::io::BufReader::new(daemon.stdout.take().expect("daemon stdout"))
        .lines()
        .next()
        .expect("daemon banner")
        .expect("read banner");
    let addr = banner
        .strip_prefix("serve listening on ")
        .and_then(|rest| rest.split(' ').next())
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_string();
    let prog = program("tracking.rlp");
    let submit = || {
        rlrpd(&[
            "submit",
            &prog,
            "--connect",
            &addr,
            "--key",
            "0x500000001",
            "--procs",
            "4",
            "--strategy",
            "sw:4",
            "--retry",
            "60",
        ])
    };
    let runs = [submit(), submit()];
    let _ = daemon.kill();
    let _ = daemon.wait();
    let _ = std::fs::remove_dir_all(&state);
    let [live, attached] = runs.map(|(ok, stdout, stderr)| {
        assert!(ok, "{stderr}");
        assert!(stdout.contains("Done, exit 0, verified true"), "{stdout}");
        let frames: usize = stdout
            .lines()
            .last()
            .and_then(|l| {
                l.split(", ")
                    .find_map(|f| f.split_once(" frames")?.0.parse().ok())
            })
            .unwrap_or_else(|| panic!("no frame count: {stdout}"));
        let lines = stdout.matches("submit: commit frontier ").count();
        assert_eq!(lines + 1, frames, "{stdout}");
        lines
    });
    assert!(live > 8, "{live} progress lines for a run of many stages");
    assert_eq!(live, attached);
}

#[test]
fn distributed_run_verifies_and_reports_transport() {
    let (ok, stdout, stderr) = rlrpd(&[
        "run",
        &program("tracking.rlp"),
        "--procs",
        "4",
        "--strategy",
        "rd",
        "--dist-workers",
        "auto",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("distributed:"), "{stdout}");
    assert!(stdout.contains("wire bytes"), "{stdout}");
    assert!(
        stdout.contains("verified against sequential execution"),
        "{stdout}"
    );
}

#[test]
fn distributed_run_recovers_from_an_injected_worker_kill() {
    let (ok, stdout, stderr) = rlrpd(&[
        "run",
        &program("tracking.rlp"),
        "--procs",
        "4",
        "--strategy",
        "rd",
        "--dist-workers",
        "auto",
        "--dist-fault",
        "kill:1",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        !stdout.contains(" 0 respawns"),
        "the injected kill must cost a respawn: {stdout}"
    );
    assert!(
        stdout.contains("verified against sequential execution"),
        "{stdout}"
    );
}

/// The β-deck's loops carry statically proven uniform distances, so
/// the default `--doacross auto` routes both to the DOACROSS tier:
/// one stage, zero restarts, byte-identical verification.
#[test]
fn doacross_auto_pipelines_the_beta_deck() {
    let (ok, stdout, stderr) = rlrpd(&["run", &program("beta_pipeline.rlp"), "--procs", "4"]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("loop 0: doacross: proven distances [4], pipeline depth min(4, 4) = 4"),
        "{stdout}"
    );
    assert!(
        stdout.contains("loop 1: doacross: proven distances [2], pipeline depth min(2, 4) = 2"),
        "{stdout}"
    );
    assert!(!stdout.contains("restarts = 1"), "{stdout}");
    assert!(
        stdout.contains("verified byte-identical to sequential execution"),
        "{stdout}"
    );
}

#[test]
fn doacross_off_still_speculates_the_beta_deck() {
    let (ok, stdout, stderr) = rlrpd(&[
        "run",
        &program("beta_pipeline.rlp"),
        "--procs",
        "4",
        "--doacross",
        "off",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        !stdout.contains("DOACROSS"),
        "--doacross off must fall back to the R-LRPD test: {stdout}"
    );
    assert!(
        stdout.contains("verified against sequential execution"),
        "{stdout}"
    );
}

#[test]
fn doacross_single_loop_announces_the_proof() {
    let path = scratch("single_d3.rlp");
    std::fs::write(
        &path,
        "array A[64] = 1;\nfor i in 3..64 { A[i] = A[i - 3] * 0.5 + i; }\n",
    )
    .unwrap();
    let (ok, stdout, stderr) = rlrpd(&[
        "run",
        path.to_str().unwrap(),
        "--procs",
        "2",
        "--doacross",
        "on",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.contains("doacross: proven distances [3], pipeline depth min(3, 2) = 2"),
        "{stdout}"
    );
    assert!(
        stdout.contains("verified byte-identical to sequential execution"),
        "{stdout}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn doacross_flag_misuse_exits_64() {
    let beta = program("beta_pipeline.rlp");
    // Unknown mode.
    assert_eq!(exit_code(&["run", &beta, "--doacross", "bogus"]), 64);
    // `on` demands a proof: tracking's indirection has none.
    assert_eq!(
        exit_code(&["run", &program("tracking.rlp"), "--doacross", "on"]),
        64
    );
}

#[test]
fn analyze_json_carries_distance_and_guard_fields() {
    let (ok, stdout, stderr) =
        rlrpd(&["analyze", &program("beta_pipeline.rlp"), "--format", "json"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("\"distance\":4"), "{stdout}");
    assert!(stdout.contains("\"distance\":null"), "{stdout}");
    assert!(stdout.contains("\"guarded\":false"), "{stdout}");
    assert!(
        stdout.contains("\"code\":\"doacross-eligible\""),
        "{stdout}"
    );
}

#[test]
fn analyze_names_doacross_blocked_references() {
    let (ok, stdout, _) = rlrpd(&["analyze", &program("tracking.rlp")]);
    assert!(ok);
    assert!(stdout.contains("note[doacross-blocked]"), "{stdout}");
    assert!(
        stdout.contains("cannot run DOACROSS and will speculate"),
        "{stdout}"
    );
}

#[test]
fn distributed_journaled_run_resumes_after_a_torn_tail() {
    let path = scratch("dist-resume-journal.bin");
    let path_str = path.to_str().unwrap().to_owned();
    let (ok, stdout, stderr) = rlrpd(&[
        "run",
        &program("tracking.rlp"),
        "--procs",
        "4",
        "--dist-workers",
        "auto",
        "--journal",
        &path_str,
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("journal:"), "{stdout}");

    // Crash mid-append, then resume *distributed*: the fleet is
    // brought to the recovered frontier with one synthetic broadcast.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
    let (ok, stdout, stderr) = rlrpd(&[
        "run",
        &program("tracking.rlp"),
        "--procs",
        "4",
        "--dist-workers",
        "auto",
        "--journal",
        &path_str,
        "--resume",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("resumed from iteration"), "{stdout}");
    assert!(
        stdout.contains("verified against sequential execution"),
        "{stdout}"
    );
    std::fs::remove_file(&path).ok();
}

/// One refused `run`: exit 64, nothing on stdout, every needle on
/// stderr, and no journal file left behind.
fn assert_refused(args: &[&str], needles: &[&str], journal: &std::path::Path) {
    let out = Command::new(env!("CARGO_BIN_EXE_rlrpd"))
        .arg("run")
        .args(args)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(64), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: nothing may be printed");
    for needle in needles {
        assert!(stderr.contains(needle), "{args:?}: no '{needle}': {stderr}");
    }
    assert!(!journal.exists(), "{args:?}: nothing may be created");
}

/// A single loop whose dependence distance is proven (d = 3): the one
/// program kind that reaches the DOACROSS × fleet rule.
fn proven_chain() -> std::path::PathBuf {
    let path = scratch("proven_chain.rlp");
    std::fs::write(
        &path,
        "array A[64] = 1;\nfor i in 3..64 { A[i] = A[i - 3] * 0.5 + i; }\n",
    )
    .unwrap();
    path
}

/// Every combination `rlrpd run` refuses — a row per `PlanError`
/// variant, per row of the program-kind table, and per flag that needs
/// another — is refused before the first line of output and the first
/// file, with the flag and the reason named.
#[test]
fn illegal_combinations_exit_64_name_the_rule_and_print_nothing_else() {
    let single = program("tracking.rlp");
    let multi = program("two_phase.rlp");
    let counter = program("extend.rlp");
    let beta = program("beta_pipeline.rlp");
    let chain = proven_chain();
    let chain = chain.to_str().unwrap();
    let journal = scratch("refused.journal");
    let j = journal.to_str().unwrap();

    let mut rows: Vec<(Vec<&str>, Vec<&str>)> = vec![
        // PlanError::NoProcessors, whatever the program.
        (vec![&single, "--procs", "0"], vec!["--procs 0"]),
        (vec![&multi, "--procs", "0"], vec!["--procs 0"]),
        (vec![&counter, "--procs", "0"], vec!["--procs 0"]),
        (
            vec![&single, "--procs", "0", "--journal", j],
            vec!["--procs 0"],
        ),
        // PlanError::ResumeWithoutJournal.
        (
            vec![&single, "--resume"],
            vec!["--resume requires --journal"],
        ),
        (
            vec![&multi, "--resume"],
            vec!["--resume requires --journal"],
        ),
        // PlanError::DoacrossOverFleet.
        (
            vec![chain, "--doacross", "on", "--dist-workers", "1"],
            vec!["--doacross", "--dist-workers", "one address space"],
        ),
        // PlanError::DoacrossWithFaults, by either injection flag.
        (
            vec![chain, "--doacross", "on", "--fault-seed", "7"],
            vec!["--doacross", "--fault-seed", "never visits"],
        ),
        (
            vec![&beta, "--doacross", "on", "--shadow-fault", "0:1K"],
            vec!["--doacross", "--shadow-fault", "never visits"],
        ),
        // PlanError::FleetWithIterationFaults, journaled or not: the
        // workers would run their blocks with no plan, and the parent
        // announced an injection that never happened.
        (
            vec![&single, "--fault-seed", "3", "--dist-workers", "2"],
            vec!["--dist-workers", "--fault-seed", "never visits"],
        ),
        (
            vec![
                &single,
                "--fault-seed",
                "3",
                "--dist-workers",
                "2",
                "--journal",
                j,
            ],
            vec!["--dist-workers", "--fault-seed", "never visits"],
        ),
        // (PlanError::RecordFaultsWithoutJournal has no spelling here: no
        // flag arms a journal-record site. `tests/plan_matrix.rs` and
        // `crates/core/tests/journal.rs` produce it.)
        // One journal file is one run.
        (vec![&single, "--journal", j, "--runs", "2"], vec!["--runs"]),
        // Values that used to be coerced without a word: `--runs 0` ran
        // once, `sw:0` ran as `sw:1` under another journal fingerprint,
        // `--watchdog nan` disabled the watchdog.
        (
            vec![&single, "--runs", "0", "--journal", j],
            vec!["--runs", "at least 1"],
        ),
        (
            vec![&single, "--strategy", "sw:0", "--journal", j],
            vec!["--strategy", "'sw:0'", "an integer ≥ 1"],
        ),
        (
            vec![&single, "--watchdog", "nan", "--journal", j],
            vec!["--watchdog", "finite number > 0", "'nan'"],
        ),
        (
            vec![&single, "--watchdog", "-1"],
            vec!["--watchdog", "finite number > 0", "'-1'"],
        ),
    ];
    // The fleet's knobs need a fleet.
    for flag in [
        "--block-deadline",
        "--max-respawns",
        "--fleet-max-respawns",
        "--heartbeat-interval",
    ] {
        rows.push((
            vec![&single, flag, "1"],
            vec![flag, "requires --dist-workers"],
        ));
    }
    rows.push((
        vec![&single, "--dist-fault", "kill:0"],
        vec!["--dist-fault requires --dist-workers"],
    ));
    // The program-kind table: what a multi-loop program cannot honour …
    for flag in [["--journal", j], ["--dist-workers", "2"]] {
        let mut args = vec![multi.as_str()];
        args.extend(flag);
        rows.push((args, vec![flag[0], "a multi-loop program", "one loop"]));
    }
    // … and what the induction scheme cannot.
    for flag in [
        vec!["--strategy", "nrd"],
        vec!["--checkpoint", "eager"],
        vec!["--balance", "feedback"],
        vec!["--max-restarts", "3"],
        vec!["--watchdog", "2"],
        vec!["--max-stages", "9"],
        vec!["--runs", "2"],
        vec!["--report"],
        vec!["--timeline"],
        vec!["--format", "json"],
        vec!["--fault-seed", "3"],
        vec!["--shadow-fault", "0:1K"],
        vec!["--shadow-budget", "1M"],
        vec!["--journal", j],
        vec!["--dist-workers", "2"],
        vec!["--doacross", "on"],
    ] {
        let mut args = vec![counter.as_str()];
        args.extend(&flag);
        rows.push((
            args,
            vec![flag[0], "a counter program", "the induction scheme"],
        ));
    }
    for (args, needles) in rows {
        assert_refused(&args, &needles, &journal);
    }
}

/// The multi-loop path is the single-loop path per loop: a fault is
/// injected into (and contained by) each loop, `--runs` instantiates
/// each loop twice, `--report` reports on each. (At the parent commit
/// all three flags were dropped without a word.)
#[test]
fn a_multi_loop_program_honours_fault_injection_runs_and_reports() {
    let (ok, stdout, stderr) = rlrpd(&[
        "run",
        &program("two_phase.rlp"),
        "--procs",
        "4",
        "--fault-seed",
        "3",
        "--runs",
        "2",
        "--report",
    ]);
    assert!(ok, "{stderr}");
    let count = |needle: &str| stdout.matches(needle).count();
    for k in 0..2 {
        assert_eq!(count(&format!("loop {k}: fault injection: seed 3")), 1);
        assert_eq!(count(&format!("loop {k}: run 0:")), 1, "{stdout}");
        assert_eq!(count(&format!("loop {k}: run 1:")), 1, "{stdout}");
        assert_eq!(
            count(&format!(
                "loop {k}: verified against sequential execution ✓"
            )),
            1,
            "{stdout}"
        );
    }
    // The one-shot fault fires in each loop's first instantiation.
    assert_eq!(count("contained faults = 1"), 2, "{stdout}");
    assert_eq!(count("\nstages: "), 2, "one report per loop: {stdout}");
    assert!(stdout.contains("whole-program speedup"), "{stdout}");
}

/// What a pair of (flag, program kind) must do: `run` accepts 25 flags,
/// and each is honoured by each kind of program or refused by name.
enum Honour {
    /// Exit 64 naming the flag, nothing printed.
    Refused,
    /// Exits with this code, and the output differs from the same
    /// invocation without the flag.
    Changes(i32),
    /// Taken into the run, where no example deck can show it on stdout
    /// (every DSL iteration costs the same, so feedback balancing cuts
    /// even blocks; a heartbeat interval only changes when a silent
    /// worker is presumed dead): the witness is that a value the flag
    /// cannot take is refused here. Their effect is pinned where it can
    /// be seen — `crates/core` balance tests, `dist/tests/worker_chaos`.
    Parsed(&'static str),
}

#[test]
fn every_run_flag_is_honoured_or_refused_by_every_program_kind() {
    use Honour::*;
    let journal = scratch("honoured.journal");
    let chain = proven_chain();
    let programs = [
        program("tracking.rlp"),
        program("two_phase.rlp"),
        program("extend.rlp"),
    ];
    // One worker, killed on its first block and again on that block's
    // re-dispatch (two blocks a stage: transmissions 0 and 2).
    const KILLS: &str = "--procs 2 --dist-workers 1 --dist-fault kill:0,kill:2";
    // (flag and value; what else is on both command lines; the
    // single-loop / multi-loop / counter expectation). `J` is the
    // journal path.
    let table = [
        ("--procs 2", "", [Changes(0), Changes(0), Changes(0)]),
        ("--strategy nrd", "", [Changes(0), Changes(0), Refused]),
        ("--checkpoint eager", "", [Changes(0), Changes(0), Refused]),
        (
            "--balance feedback",
            "",
            [Parsed("psychic"), Parsed("psychic"), Refused],
        ),
        ("--runs 2", "", [Changes(0), Changes(0), Refused]),
        ("--fault-seed 3", "", [Changes(0), Changes(0), Refused]),
        ("--watchdog 0.01", "", [Changes(0), Changes(0), Refused]),
        ("--max-restarts 0", "", [Changes(0), Changes(0), Refused]),
        ("--max-stages 1", "", [Changes(3), Changes(3), Refused]),
        ("--journal J", "", [Changes(0), Refused, Refused]),
        // Nothing at `J` to resume: the journal error is the effect.
        ("--resume", "--journal J", [Changes(4), Refused, Refused]),
        ("--dist-workers 1", "", [Changes(0), Refused, Refused]),
        // (Its effect — a hung worker caught sooner — is timed below.)
        (
            "--block-deadline 2",
            "--dist-workers 1",
            [Parsed("0"), Refused, Refused],
        ),
        ("--max-respawns 0", KILLS, [Changes(0), Refused, Refused]),
        (
            "--fleet-max-respawns 1",
            KILLS,
            [Changes(0), Refused, Refused],
        ),
        (
            "--heartbeat-interval 0.02",
            "--dist-workers 1",
            [Parsed("9"), Refused, Refused],
        ),
        (
            "--dist-fault kill:0",
            "--dist-workers 1",
            [Changes(0), Refused, Refused],
        ),
        ("--shadow-budget 1M", "", [Changes(0), Changes(0), Refused]),
        ("--shadow-fault 0:1K", "", [Changes(0), Changes(0), Refused]),
        // (No proof on these decks; the proven chain is run below.)
        ("--doacross on", "", [Refused, Refused, Refused]),
        ("--format json", "", [Changes(0), Changes(0), Refused]),
        // The executor shows in the JSON report's `fork_joins`; the
        // induction scheme's (it takes the flag) prints nowhere.
        (
            "--pooled",
            "--format json",
            [Changes(0), Changes(0), Parsed("")],
        ),
        ("--no-compile", "", [Changes(0), Changes(0), Changes(0)]),
        ("--report", "", [Changes(0), Changes(0), Refused]),
        ("--timeline", "", [Changes(0), Changes(0), Refused]),
    ];
    assert_eq!(table.len(), 25);
    let run = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_rlrpd"))
            .arg("run")
            .args(args)
            .output()
            .expect("binary runs");
        let code = out.status.code().expect("not signalled");
        // The wall-clock fields are not the flag's doing: of the
        // `distributed:` line keep the fleet's fate, of a JSON report
        // the executor's mark.
        let stdout: Vec<String> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .map(
                |l| match (l.find("quarantined"), l.find("\"fork_joins\":")) {
                    (Some(at), _) if l.starts_with("distributed:") => l[..at].to_string(),
                    (_, Some(at)) => l[at..].split(',').next().unwrap().to_string(),
                    _ => l.to_string(),
                },
            )
            .collect();
        (code, stdout.join("\n"))
    };
    let j = journal.to_str().unwrap();
    let words = |s: &'static str| s.split_whitespace().map(|w| if w == "J" { j } else { w });
    for (flag, context, honours) in &table {
        let flag: Vec<&str> = words(flag).collect();
        for (program, honour) in programs.iter().zip(honours) {
            std::fs::remove_file(&journal).ok();
            let mut without = vec![program.as_str()];
            let alone: Vec<&str> = without.iter().chain(&flag).copied().collect();
            match honour {
                Refused => assert_refused(&alone, &[flag[0]], &journal),
                Changes(code) => {
                    without.extend(words(context));
                    let with: Vec<&str> = without.iter().chain(&flag).copied().collect();
                    let (base_code, base) = run(&without);
                    std::fs::remove_file(&journal).ok();
                    let (got_code, got) = run(&with);
                    assert_eq!(got_code, *code, "{with:?}");
                    assert!(
                        got != base || got_code != base_code,
                        "{with:?}: the flag changed nothing:\n{got}"
                    );
                }
                Parsed(bad) => {
                    // The counter's context is its own refusal.
                    if !bad.is_empty() {
                        without.extend(words(context));
                        let bad: Vec<&str> =
                            without.iter().chain(&[flag[0], bad]).copied().collect();
                        assert_refused(&bad, &[], &journal);
                    }
                    let with: Vec<&str> = without.iter().chain(&flag).copied().collect();
                    assert_eq!(run(&with).0, 0, "{with:?}");
                }
            }
        }
    }
    // `--doacross`, on a loop that has the proof: `off` keeps it on the
    // speculative tier, `on` and `auto` pipeline it.
    let chain = chain.to_str().unwrap();
    let (_, auto) = run(&[chain]);
    assert!(auto.contains("doacross: proven distances [3]"), "{auto}");
    assert_eq!(run(&[chain, "--doacross", "on"]).1, auto);
    assert!(!run(&[chain, "--doacross", "off"]).1.contains("doacross:"));
    // `--block-deadline`: a worker hung on its first block is caught at
    // the deadline (0.3 s here, 5 s by default) and the run recovers.
    let t = std::time::Instant::now();
    let hung = "--dist-workers 1 --dist-fault hang:0 --block-deadline 0.3";
    let args: Vec<&str> = std::iter::once(programs[0].as_str())
        .chain(words(hung))
        .collect();
    let (code, stdout) = run(&args);
    assert_eq!(code, 0);
    assert!(stdout.contains(" 1 respawns"), "{stdout}");
    assert!(
        t.elapsed().as_secs_f64() < 3.0,
        "caught at the default deadline"
    );
    std::fs::remove_file(&journal).ok();
}
