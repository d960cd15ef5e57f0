//! End-to-end swarm tests: drive the `nifdy-experiments` binary's `node:*`
//! targets as real subprocesses, exactly the way CI and a user would. The
//! swarm parent in turn re-executes the same binary as `--swarm-child`
//! workers, so each test here exercises the full stdio control protocol,
//! real UDP datagrams between processes, and the parity/recovery gates.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, Stdio};
use std::thread::sleep;
use std::time::Duration;

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nifdy-experiments"))
}

fn run_ok(args: &[&str]) -> String {
    let out = experiments().args(args).output().expect("spawn binary");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "{args:?} failed (status {:?})\nstdout:\n{stdout}\nstderr:\n{stderr}",
        out.status
    );
    stdout
}

#[test]
fn serve_single_daemon_reports_in_order_delivery() {
    let stdout = run_ok(&[
        "node:serve",
        "--smoke",
        "--seed",
        "7",
        "--nodes=12",
        "--shards=4",
        "--messages=1",
        "--packets=2",
        "--parity",
    ]);
    // The order column reports "plan+sim" when both the send-order gate and
    // the --parity flit-level comparison pass.
    assert!(
        stdout.contains("plan+sim"),
        "serve summary missing order verdict:\n{stdout}"
    );
}

#[test]
fn swarm_clean_run_matches_sim_delivery_order() {
    let stdout = run_ok(&[
        "node:swarm",
        "--smoke",
        "--seed",
        "5",
        "--procs=2",
        "--per-proc=4",
        "--messages=1",
        "--packets=2",
    ]);
    assert!(
        stdout.contains("parity OK"),
        "swarm did not report parity:\n{stdout}"
    );
}

#[test]
fn swarm_survives_killing_one_process() {
    let stdout = run_ok(&[
        "node:swarm",
        "--smoke",
        "--seed",
        "11",
        "--procs=2",
        "--per-proc=4",
        "--messages=1",
        "--packets=2",
        "--kill",
    ]);
    assert!(
        stdout.contains("recovery OK"),
        "swarm did not report recovery:\n{stdout}"
    );
}

#[test]
fn bad_node_flags_are_rejected() {
    let out = experiments()
        .args(["node:swarm", "--smoke", "--kill", "--workload=em3d"])
        .output()
        .expect("spawn binary");
    assert!(!out.status.success(), "--kill with em3d should be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--workload=rotation only"),
        "error should name the flag:\n{stderr}"
    );
}

#[test]
fn procs_is_checked_by_the_swarm_parent_only() {
    // A single daemon has no process count to check.
    run_ok(&[
        "node:serve",
        "--smoke",
        "--procs=1",
        "--nodes=8",
        "--messages=1",
        "--packets=2",
    ]);
    let out = experiments()
        .args(["node:swarm", "--smoke", "--procs=1"])
        .output()
        .expect("spawn binary");
    assert!(!out.status.success(), "--procs=1 should be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--procs must be at least 2"),
        "error should name the flag:\n{stderr}"
    );
}

#[test]
fn a_child_exits_when_its_parent_hangs_up() {
    let mut child = experiments()
        .args(["node:serve", "--smoke", "--procs=2", "--per-proc=4"])
        .args(["--messages=1", "--packets=2", "--swarm-child", "--proc=0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn a swarm child");
    let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut port = String::new();
    stdout.read_line(&mut port).expect("read the PORT line");
    assert!(port.starts_with("PORT "), "first line: {port:?}");
    let mut stdin = child.stdin.take().expect("child stdin");
    writeln!(stdin, "GO").expect("send GO");
    drop(stdin);
    // Its run loop polls stdin every round: EOF ends it well within 20 s.
    let mut status = None;
    for _ in 0..1_000 {
        status = child.try_wait().expect("poll the child");
        if status.is_some() {
            break;
        }
        sleep(Duration::from_millis(20));
    }
    let Some(status) = status else {
        let _ = child.kill();
        let _ = child.wait();
        panic!("the child kept running after its stdin closed");
    };
    let mut stderr = String::new();
    let _ = child
        .stderr
        .take()
        .map(|mut e| e.read_to_string(&mut stderr));
    assert!(!status.success(), "exit on EOF is an error: {status}");
    assert!(stderr.contains("swarm parent hung up"), "stderr:\n{stderr}");
}
