//! `grace-launch`'s parent-mode command line: `--help` prints the usage and
//! exits 0; every malformed invocation prints a one-line error plus the
//! usage and exits 2, without panicking and without spawning a rank.

use std::process::{Command, Output};

fn launch(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_grace-launch"))
        .args(args)
        .env_remove("GRACE_RANK")
        .output()
        .expect("run grace-launch")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = launch(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("usage: grace-launch"),
            "{flag}: {stdout}"
        );
        assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
    }
}

#[test]
fn malformed_arguments_are_usage_errors() {
    let cases: [(&[&str], &str); 10] = [
        (&["--bogus"], "unknown argument '--bogus'"),
        (&["--ranks"], "--ranks needs a value"),
        (&["--compressor"], "--compressor needs a value"),
        (&["--ranks", "four"], "--ranks expects a positive integer"),
        (&["--ranks", "0"], "--ranks expects a positive integer"),
        (&["--epochs", "-1"], "--epochs expects a positive integer"),
        (&["--drop", "1"], "--drop expects RANK@OP"),
        (&["--drop", "x@3"], "--drop expects RANK@OP"),
        (&["--ranks", "2", "--drop", "5@1"], "out of range"),
        (&["--compressor", "nope"], "unknown compressor id 'nope'"),
    ];
    for (args, want) in cases {
        let out = launch(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        let mut lines = stderr.lines();
        let first = lines.next().unwrap_or_default();
        assert!(
            first.starts_with("grace-launch: ") && first.contains(want),
            "{args:?}: {stderr}"
        );
        assert!(
            lines
                .next()
                .is_some_and(|l| l.starts_with("usage: grace-launch")),
            "{args:?}: usage missing from {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} started a run");
    }
}
