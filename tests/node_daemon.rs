//! Integration tests for the `gcs-node` socket daemon: a two-process
//! Unix-domain-socket cluster exchanging wire floods, hostile bytes from
//! a TCP client, plus the `gcs-scenarios node-smoke` loopback harness end
//! to end.
//!
//! Everything here runs over loopback transports with piped stdin, so
//! the tests are hermetic; a daemon whose stdin pipe closes shuts
//! itself down, so a failing assertion cannot leak processes past the
//! test binary's lifetime.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use gcs_protocol::wire::Frame;
use gcs_protocol::FloodMsg;
use gradient_clock_sync::net::NodeId;
use gradient_clock_sync::sim::SimTime;

fn daemon() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_gcs-node"));
    cmd.stdin(Stdio::piped()).stdout(Stdio::piped());
    cmd
}

/// Reads the `listening <addr>` announce line.
fn announced_addr(reader: &mut BufReader<ChildStdout>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim()
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("expected an announce line, got {line:?}"))
        .to_string()
}

/// Polls until the child exits or the deadline passes.
fn wait_with_deadline(child: &mut Child, secs: u64) -> Option<std::process::ExitStatus> {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return Some(status);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn two_daemons_exchange_floods_over_unix_sockets_and_shut_down_cleanly() {
    let dir = std::env::temp_dir();
    let sock_a = dir.join(format!("gcs-node-a-{}.sock", std::process::id()));
    let sock_b = dir.join(format!("gcs-node-b-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock_a);
    let _ = std::fs::remove_file(&sock_b);

    let mut a = daemon()
        .args(["--uds", sock_a.to_str().unwrap()])
        .args(["--first", "0", "--count", "1", "--total", "2"])
        .args(["--refresh", "0.1", "--status-every", "0.1"])
        .spawn()
        .unwrap();
    let mut a_out = BufReader::new(a.stdout.take().unwrap());
    let addr_a = announced_addr(&mut a_out);
    assert_eq!(addr_a, format!("unix:{}", sock_a.display()));

    let mut b = daemon()
        .args(["--uds", sock_b.to_str().unwrap()])
        .args(["--first", "1", "--count", "1", "--total", "2"])
        .args(["--refresh", "0.1", "--status-every", "0.1"])
        .args(["--peers", &addr_a])
        .spawn()
        .unwrap();
    let mut b_out = BufReader::new(b.stdout.take().unwrap());
    let _ = announced_addr(&mut b_out);

    // Let the pair exchange a handful of refresh rounds, then request
    // the graceful path by closing both stdin pipes.
    std::thread::sleep(Duration::from_millis(1200));
    drop(a.stdin.take());
    drop(b.stdin.take());
    let status_a = wait_with_deadline(&mut a, 5).expect("daemon A ignored stdin EOF");
    let status_b = wait_with_deadline(&mut b, 5).expect("daemon B ignored stdin EOF");
    assert_eq!(status_a.code(), Some(0), "A: {status_a}");
    assert_eq!(status_b.code(), Some(0), "B: {status_b}");

    // Drain both logs: each daemon must have heard the other (floods
    // crossed the socket in both directions — B dialed A, and A routes
    // back over the same connection) and printed the clean-exit marker.
    for (name, reader) in [("A", &mut a_out), ("B", &mut b_out)] {
        let lines: Vec<String> = reader.lines().map_while(Result::ok).collect();
        let heard = lines
            .iter()
            .filter_map(|l| l.split("peers_heard=").nth(1))
            .filter_map(|v| v.trim().parse::<usize>().ok())
            .max()
            .unwrap_or(0);
        assert_eq!(heard, 1, "daemon {name} never heard its peer: {lines:?}");
        assert!(
            lines.iter().any(|l| l == "shutdown clean"),
            "daemon {name} skipped the graceful path: {lines:?}"
        );
    }
    assert!(!sock_a.exists(), "daemon A left its socket file behind");
    assert!(!sock_b.exists(), "daemon B left its socket file behind");
}

/// Runs `gcs-node --uds path` with stdin closed and returns its exit
/// code, stdout and stderr.
fn uds_daemon_run(path: &std::path::Path) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_gcs-node"))
        .args(["--uds", path.to_str().unwrap()])
        .args(["--first", "0", "--count", "1", "--total", "1"])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

#[test]
fn uds_path_holding_a_regular_file_is_refused_and_left_intact() {
    let path = std::env::temp_dir().join(format!("gcs-node-file-{}.txt", std::process::id()));
    std::fs::write(&path, b"not a socket\n").unwrap();
    let (code, stdout, stderr) = uds_daemon_run(&path);
    let kept = std::fs::read(&path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(
        stderr.contains(&format!(
            "error: {} exists and is not a socket",
            path.display()
        )),
        "{stderr}"
    );
    assert_eq!(kept.unwrap(), b"not a socket\n", "the file was touched");
}

#[test]
fn uds_path_served_by_a_live_listener_is_refused_and_kept() {
    use std::os::unix::net::UnixListener;
    let path = std::env::temp_dir().join(format!("gcs-node-live-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let live = UnixListener::bind(&path).unwrap();
    let (code, stdout, stderr) = uds_daemon_run(&path);
    let kept = path.exists();
    // The daemon's probe reached the live listener, which still serves.
    live.set_nonblocking(true).unwrap();
    let probed = live.accept().is_ok();
    drop(live);
    let _ = std::fs::remove_file(&path);
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(
        stderr.contains("is in use: a listener answers on it"),
        "{stderr}"
    );
    assert!(kept, "the live listener's socket file was unlinked");
    assert!(probed, "the daemon never probed the listener");
}

#[test]
fn uds_path_holding_a_stale_socket_is_reclaimed() {
    use std::os::unix::net::UnixListener;
    let path = std::env::temp_dir().join(format!("gcs-node-stale-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // A listener that dies without unlinking leaves a socket nobody answers.
    drop(UnixListener::bind(&path).unwrap());
    assert!(path.exists());
    let (code, stdout, stderr) = uds_daemon_run(&path);
    assert_eq!(code, Some(0), "{stdout}{stderr}");
    assert!(
        stdout.starts_with(&format!("listening unix:{}\n", path.display())),
        "{stdout}"
    );
    assert!(stdout.lines().any(|l| l == "shutdown clean"), "{stdout}");
    assert!(!path.exists(), "the daemon left its socket file behind");
}

#[test]
fn hostile_frames_drop_the_connection_not_the_daemon() {
    let mut d = daemon()
        .args(["--listen", "127.0.0.1:0"])
        .args(["--first", "0", "--count", "1", "--total", "3"])
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut d_out = BufReader::new(d.stdout.take().unwrap());
    let addr = announced_addr(&mut d_out);

    // The 61-byte frame that used to kill the process: a well-formed
    // FLOOD whose `sent_at` is NaN. A HELLO whose range overflows. And
    // three impersonations that decode cleanly, so only the connection's
    // announced range can catch them: a FLOOD before any HELLO, a FLOOD
    // from a node outside the announced range, and a second HELLO
    // re-announcing the range.
    let mut nan_flood = 57u32.to_le_bytes().to_vec();
    nan_flood.push(2);
    nan_flood.extend([0u8; 16]);
    nan_flood.extend(f64::NAN.to_bits().to_le_bytes());
    nan_flood.extend([0u8; 32]);
    assert_eq!(nan_flood.len(), 61);
    let wide_hello = Frame::Hello {
        first: u64::MAX,
        count: 2,
    }
    .to_bytes();
    let hello = |first| Frame::Hello { first, count: 1 }.to_bytes();
    let flood_from = |src| {
        Frame::Flood {
            src: NodeId(src),
            dst: NodeId(0),
            sent_at: SimTime::ZERO,
            msg: FloodMsg {
                logical: 1.0,
                max_est: 1.0,
                min_lb: 1.0,
                max_ub: 1.0,
            },
        }
        .to_bytes()
    };
    let foreign_flood = [hello(1), flood_from(2)].concat();
    let second_hello = [hello(1), hello(1)].concat();
    for hostile in [
        nan_flood,
        wide_hello,
        flood_from(1),
        foreign_flood,
        second_hello,
    ] {
        let mut peer = TcpStream::connect(&addr).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        peer.write_all(&hostile).unwrap();
        // The daemon hangs up on us: its HELLO, then end of stream.
        let mut rest = Vec::new();
        peer.read_to_end(&mut rest).expect("connection not dropped");
    }

    assert_eq!(d.try_wait().unwrap(), None, "the daemon died");
    drop(d.stdin.take());
    let status = wait_with_deadline(&mut d, 5).expect("daemon ignored stdin EOF");
    assert_eq!(status.code(), Some(0), "{status}");
    let lines: Vec<String> = d_out.lines().map_while(Result::ok).collect();
    assert!(lines.iter().any(|l| l == "shutdown clean"), "{lines:?}");
    let mut err = String::new();
    d.stderr.take().unwrap().read_to_string(&mut err).unwrap();
    assert!(err.contains("dropping corrupt peer stream"), "{err}");
    assert!(err.contains("dropping peer: HELLO range"), "{err}");
    assert!(
        err.contains("dropping peer: FLOOD from node 1 before any HELLO"),
        "{err}"
    );
    assert!(
        err.contains("dropping peer: FLOOD from node 2 outside its HELLO range 1..2"),
        "{err}"
    );
    assert!(err.contains("dropping peer: second HELLO"), "{err}");
}

#[test]
fn node_smoke_verb_passes_on_a_small_tcp_cluster() {
    let out = Command::new(env!("CARGO_BIN_EXE_gcs-scenarios"))
        .args([
            "node-smoke",
            "--procs",
            "2",
            "--per-proc",
            "1",
            "--secs",
            "2",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "node-smoke failed:\n{stdout}\n{stderr}"
    );
    assert!(
        stdout.contains("within the Thm 5.22 envelope"),
        "skew verdict missing: {stdout}"
    );
}
