//! The `qppt-router` command line: an unknown or mistyped flag, a repeated
//! switch, a value that does not parse and a missing value each exit 2
//! with one stderr line naming the argument — before the router waits on
//! its fleet (the "waiting up to …" line never appears, though the fleet
//! below would never answer).

use std::net::TcpListener;
use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_qppt-router"))
        .args(args)
        .output()
        .expect("qppt-router starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_command_lines_exit_2_naming_the_argument() {
    // A closed port: a router that got past the flag check would wait on
    // it for the whole --wait-secs.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let fleet = ["--shards", dead.as_str(), "--wait-secs", "30"];
    for (extra, named) in [
        (&["--bogus"][..], "--bogus"),
        (&["--cache-result-m", "8"][..], "--cache-result-m"),
        (&["--retry-budget", "-1"][..], "-1"),
        (
            &["--cache-probe-interval-ms"][..],
            "--cache-probe-interval-ms",
        ),
        (
            &["--no-router-cache", "--no-router-cache"][..],
            "--no-router-cache",
        ),
    ] {
        let args: Vec<&str> = fleet.iter().chain(extra).copied().collect();
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(2), "{args:?} exits 2; stderr: {stderr}");
        assert_eq!(
            stderr.lines().count(),
            1,
            "{args:?} prints one line and waits on nothing: {stderr}"
        );
        assert!(
            stderr.starts_with("qppt-router: ") && stderr.contains(named),
            "{args:?} names {named}: {stderr}"
        );
    }
}
