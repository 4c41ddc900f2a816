//! `psep-serve build` argument validation: an `--epsilon` the oracle
//! cannot use is a usage error that writes no bundle.

use std::path::PathBuf;
use std::process::Command;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("psep-serve-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn build(epsilon: &str, out: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_psep-serve"))
        .args([
            "build",
            "--family",
            "grid",
            "--n",
            "16",
            "--epsilon",
            epsilon,
        ])
        .arg("--out")
        .arg(out)
        .output()
        .expect("psep-serve runs")
}

#[test]
fn bad_epsilon_is_a_usage_error_and_writes_no_bundle() {
    let dir = scratch_dir("bad-eps");
    for epsilon in ["0", "-1", "nan", "inf"] {
        let out = dir.join(format!("eps-{epsilon}.bundle"));
        let run = build(epsilon, &out);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "--epsilon {epsilon}: {stderr}");
        assert!(
            stderr.contains("--epsilon: epsilon must be positive and finite"),
            "--epsilon {epsilon}: {stderr}"
        );
        assert!(stderr.contains("usage:"), "--epsilon {epsilon}: {stderr}");
        assert!(!out.exists(), "--epsilon {epsilon} wrote {}", out.display());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn good_epsilon_writes_a_bundle() {
    let dir = scratch_dir("good-eps");
    let out = dir.join("eps-0.5.bundle");
    let run = build("0.5", &out);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(std::fs::metadata(&out).unwrap().len() > 0);
    std::fs::remove_dir_all(&dir).ok();
}
