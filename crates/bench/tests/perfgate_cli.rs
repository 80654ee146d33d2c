//! The `perfgate` binary end to end: its exit status is the verdict,
//! whatever becomes of the report it prints.

use std::path::Path;
use std::process::{Command, Stdio};

#[test]
fn passing_gate_exits_zero_when_stdout_is_closed() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfgate_cli_closed_stdout");
    std::fs::create_dir_all(&dir).unwrap();
    // A digest several times larger than a pipe buffer, so the report
    // cannot fit in the pipe and its write must fail once the reader has
    // gone.
    let digest: String = (0..8000)
        .map(|i| format!("bench{i} virtual_ms=1.5 polls=100 timer_fires=200 completed=10\n"))
        .collect();
    assert!(digest.len() > 256 << 10);
    let path = dir.join("digest.txt");
    std::fs::write(&path, digest).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_perfgate"))
        .arg("--current")
        .arg(&path)
        .arg("--baseline")
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("perfgate starts");
    // Close the read end of stdout before reading a byte.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
