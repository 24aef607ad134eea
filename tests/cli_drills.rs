//! The two write-path drills of the `mdwh` command-line frontend, run the
//! way an operator runs them: the snapshot writer race, and the crash
//! drill — one round whose kept directory must read back clean under
//! `fsck`, and a full run in which every armed failpoint must fire.

use std::process::{Command, Output};

fn mdwh(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mdwh"))
        .args(args)
        .output()
        .expect("run mdwh")
}

/// The drill's stdout, after asserting that it exited 0.
fn stdout_ok(args: &[&str], output: &Output) -> String {
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(
        output.status.success(),
        "mdwh {args:?} failed\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

#[test]
fn writer_race_reports_zero_torn_reads() {
    let args = ["drill", "overload", "--writer-race", "--threads", "4", "--writes", "32"];
    let out = stdout_ok(&args, &mdwh(&args));
    assert!(out.contains("zero torn reads"), "no verdict line: {out}");
}

#[test]
fn crash_at_run_seal_recovers_every_acked_batch_and_fscks_clean() {
    let root = std::env::temp_dir().join(format!("mdwh-drill-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let root_arg = root.to_str().unwrap();
    let args = [
        "drill", "crash", "--writers", "2", "--batches", "8", "--failpoint", "run::seal",
        "--store", root_arg,
    ];
    let out = stdout_ok(&args, &mdwh(&args));
    assert!(out.contains("all acked recovered"), "no recovery verdict: {out}");

    let kept = root.join("run-seal");
    let fsck = ["fsck", "--store", kept.to_str().unwrap()];
    let report = stdout_ok(&fsck, &mdwh(&fsck));
    assert!(report.lines().any(|l| l == "clean"), "kept directory is damaged: {report}");
    let _ = std::fs::remove_dir_all(&root);
}

/// Every round's failpoint fires, the seal, rotation and compaction points
/// included, which a short race alone does not reach; a round whose point
/// never fired fails the drill.
#[test]
fn crash_drill_fires_every_armed_failpoint() {
    let args = ["drill", "crash", "--writers", "2", "--batches", "12"];
    let out = stdout_ok(&args, &mdwh(&args));
    assert_eq!(out.matches("all acked recovered").count(), 10, "{out}");
    assert!(out.contains("10 failpoint(s) fired and survived"), "{out}");
}
