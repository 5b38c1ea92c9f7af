//! The `qppt-server` command line: an unknown flag, a mistyped flag, a
//! value that does not parse and a missing value each exit 2 with one
//! stderr line naming the argument — before any SSB data is generated
//! (the generator's "generating SSB …" line never appears).

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_qppt-server"))
        .args(args)
        .output()
        .expect("qppt-server starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_command_lines_exit_2_naming_the_argument() {
    for (args, named) in [
        (
            &["--sf", "0.01", "--cache-result-m", "8"][..],
            "--cache-result-m",
        ),
        (&["--bogus"][..], "--bogus"),
        (&["--sf", "big"][..], "big"),
        (&["--shard", "2/2"][..], "2/2"),
        (&["--threads"][..], "--threads"),
        (&["--sf", "0.01", "stray"][..], "stray"),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?} exits 2; stderr: {stderr}");
        assert_eq!(
            stderr.lines().count(),
            1,
            "{args:?} prints one line and generates nothing: {stderr}"
        );
        assert!(
            stderr.starts_with("qppt-server: ") && stderr.contains(named),
            "{args:?} names {named}: {stderr}"
        );
    }
}
