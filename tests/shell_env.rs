//! The `nsql` shell survives malformed query knobs: a bad `NSQL_THREADS`
//! is reported as an error line for the statement, never a panic or a
//! process abort. The variable is set on the child process only.

use std::io::Write;
use std::process::{Command, Stdio};

/// Run the shell over `script` with `NSQL_THREADS=threads`, returning its
/// exit status, stdout and stderr.
fn run_shell(threads: &str, script: &str) -> (std::process::ExitStatus, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_nsql"))
        .env("NSQL_THREADS", threads)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn nsql");
    child.stdin.take().expect("stdin").write_all(script.as_bytes()).expect("write script");
    let out = child.wait_with_output().expect("wait for nsql");
    (
        out.status,
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn bad_nsql_threads_is_an_error_line_not_a_panic() {
    let script = ".demo\nSELECT PNUM FROM PARTS WHERE QOH = 0;\n.quit\n";
    for bad in ["abc", "0"] {
        let (status, stdout, stderr) = run_shell(bad, script);
        assert!(status.success(), "NSQL_THREADS={bad}: exit {status:?}\n{stderr}");
        assert!(!stderr.contains("panicked"), "NSQL_THREADS={bad}: {stderr}");
        assert!(
            stdout.lines().any(|l| l.contains("error:") && l.contains("NSQL_THREADS")),
            "NSQL_THREADS={bad}: no error line naming the variable in\n{stdout}"
        );
    }
    // A valid value answers the same statement.
    let (status, stdout, _) = run_shell("1", script);
    assert!(status.success());
    assert!(stdout.contains("(1 row)"), "{stdout}");
}
