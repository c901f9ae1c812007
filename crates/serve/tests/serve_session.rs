//! End-to-end sessions against the service: `run_stdio` over in-memory
//! buffers (the library seam) and the real `dnnip-serve` binary over pipes
//! (the deployment seam). Both must show the protocol's three invariants:
//! one response line per request, correlation by id, clean exit after
//! `shutdown` or EOF.

use std::io::Cursor;
use std::io::Write;
use std::process::{Command, Stdio};

use dnnip_serve::json::Json;
use dnnip_serve::{run_stdio, Engine, EngineConfig, MAX_LINE_BYTES};

fn engine(workers: usize) -> Engine {
    Engine::in_memory(EngineConfig {
        workers,
        queue_depth: 8,
        default_deadline_ms: None,
        ..EngineConfig::default()
    })
}

fn session(workers: usize, input: &str) -> Vec<Json> {
    session_bytes(workers, input.as_bytes().to_vec())
}

fn session_bytes(workers: usize, input: Vec<u8>) -> Vec<Json> {
    let mut output = Vec::new();
    run_stdio(engine(workers), Cursor::new(input), &mut output).unwrap();
    String::from_utf8(output)
        .unwrap()
        .lines()
        .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}")))
        .collect()
}

fn by_id<'a>(responses: &'a [Json], id: &str) -> &'a Json {
    responses
        .iter()
        .find(|r| r.get("id").and_then(Json::as_str) == Some(id))
        .unwrap_or_else(|| panic!("no response with id {id:?}"))
}

#[test]
fn stdio_session_answers_every_request_and_acks_shutdown_last() {
    let input = concat!(
        r#"{"id":"g1","model":"tiny-relu","budget":3,"pool":{"synthetic":10,"seed":1}}"#,
        "\n",
        r#"{"id":"g2","model":"tiny-tanh","strategy":"combined","budget":2,"seed":3,"gradgen_steps":2,"pool":{"synthetic":8,"seed":2}}"#,
        "\n",
        "\n", // blank lines are ignored, not errors
        r#"{"id":"m","op":"models"}"#,
        "\n",
        r#"{"id":"bad","model":"nope"}"#,
        "\n",
        r#"{"id":"bye","op":"shutdown"}"#,
        "\n",
        r#"{"id":"after","model":"tiny-relu"}"#, // past shutdown: never read
        "\n",
    );
    let responses = session(2, input);
    assert_eq!(
        responses.len(),
        5,
        "4 answers + shutdown ack, nothing after"
    );
    assert_eq!(
        by_id(&responses, "g1").get("ok").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        by_id(&responses, "g2")
            .get("strategy")
            .and_then(Json::as_str),
        Some("combined")
    );
    assert_eq!(
        by_id(&responses, "bad")
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("bad_request")
    );
    assert!(
        responses
            .iter()
            .all(|r| r.get("id").and_then(Json::as_str) != Some("after")),
        "requests after shutdown must not be served"
    );
    // The ack is the FINAL line: everything accepted was answered first.
    let last = responses.last().unwrap();
    assert_eq!(last.get("id").and_then(Json::as_str), Some("bye"));
    assert_eq!(last.get("shutdown").and_then(Json::as_bool), Some(true));
}

#[test]
fn eof_without_shutdown_drains_and_exits_cleanly() {
    let input = concat!(
        r#"{"id":"a","model":"mlp-wide","budget":2,"pool":{"synthetic":8,"seed":4}}"#,
        "\n",
        r#"{"id":"b","model":"tiny-relu","strategy":"random-selection","budget":2,"seed":1,"pool":{"synthetic":8,"seed":5}}"#,
        "\n",
    );
    let responses = session(2, input);
    assert_eq!(responses.len(), 2, "EOF still answers accepted requests");
    for id in ["a", "b"] {
        assert_eq!(
            by_id(&responses, id).get("ok").and_then(Json::as_bool),
            Some(true),
            "{id}"
        );
    }
}

#[test]
fn a_timed_out_request_does_not_poison_the_session() {
    let input = concat!(
        r#"{"id":"slow","model":"mnist-scaled","budget":4,"deadline_ms":0,"pool":{"synthetic":16,"seed":1}}"#,
        "\n",
        r#"{"id":"fast","model":"tiny-relu","budget":2,"pool":{"synthetic":6,"seed":2}}"#,
        "\n",
    );
    let responses = session(1, input);
    assert_eq!(responses.len(), 2);
    assert_eq!(
        by_id(&responses, "slow")
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str),
        Some("timeout")
    );
    assert_eq!(
        by_id(&responses, "fast").get("ok").and_then(Json::as_bool),
        Some(true),
        "the worker must survive a timeout and keep serving"
    );
}

#[test]
fn a_deeply_nested_line_is_a_bad_request_and_the_next_request_is_served() {
    // 200 KB of `[` once overflowed the recursive parser's stack and killed
    // the process before the request queued behind it was answered.
    let input = format!(
        "{}\n{}\n",
        "[".repeat(200_000),
        r#"{"id":"m","op":"models"}"#
    );
    let responses = session(1, &input);
    assert_eq!(responses.len(), 2, "both lines answered");
    let error = responses[0].get("error").expect("first answer is an error");
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("bad_request")
    );
    assert!(error
        .get("message")
        .and_then(Json::as_str)
        .is_some_and(|m| m.contains("nesting deeper than")));
    assert_eq!(responses[1].get("id").and_then(Json::as_str), Some("m"));
    assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(true));
}

/// The `bad_request` message of a response, panicking on anything else.
fn bad_request_message(response: &Json) -> &str {
    let error = response.get("error").expect("an error response");
    assert_eq!(
        error.get("kind").and_then(Json::as_str),
        Some("bad_request")
    );
    error.get("message").and_then(Json::as_str).unwrap()
}

#[test]
fn a_non_utf8_line_is_a_bad_request_and_the_next_request_is_served() {
    let mut input = b"\xff\xfe\n".to_vec();
    input.extend_from_slice(b"{\"id\":\"m\",\"op\":\"models\"}\n");
    let responses = session_bytes(1, input);
    assert_eq!(responses.len(), 2, "both lines answered, in order");
    assert!(bad_request_message(&responses[0]).contains("not valid UTF-8"));
    assert_eq!(responses[1].get("id").and_then(Json::as_str), Some("m"));
    assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn an_over_long_line_is_a_bad_request_and_the_next_request_is_served() {
    // A line at the cap is read (and rejected only as malformed JSON); one
    // byte more is skipped unread.
    let input = format!(
        "{}\n{}\n{}\n",
        "x".repeat(MAX_LINE_BYTES),
        "x".repeat(MAX_LINE_BYTES + 1),
        r#"{"id":"m","op":"models"}"#
    );
    let responses = session(1, &input);
    assert_eq!(responses.len(), 3, "every line answered, in order");
    assert!(bad_request_message(&responses[0]).contains("malformed JSON"));
    assert!(bad_request_message(&responses[1]).contains("longer than"));
    assert_eq!(responses[2].get("id").and_then(Json::as_str), Some("m"));
    assert_eq!(responses[2].get("ok").and_then(Json::as_bool), Some(true));
}

#[test]
fn over_cap_work_is_a_bad_request_and_the_next_request_is_served() {
    // A gradient-based request for a trillion tests was still unanswered
    // after a minute, with nothing to stop its work; a billion descent steps
    // is the same hazard through `gradgen_steps`.
    let input = concat!(
        r#"{"id":"b","model":"tiny-relu","strategy":"gradient-based","budget":1000000000000,"pool":{"synthetic":4,"seed":1}}"#,
        "\n",
        r#"{"id":"s","model":"tiny-relu","strategy":"gradient-based","budget":2,"gradgen_steps":1000000000,"pool":{"synthetic":4,"seed":1}}"#,
        "\n",
        r#"{"id":"g","model":"tiny-relu","budget":2,"pool":{"synthetic":6,"seed":2}}"#,
        "\n",
    );
    let responses = session(1, input);
    assert_eq!(responses.len(), 3, "every line answered");
    assert!(bad_request_message(by_id(&responses, "b")).contains("exceeds the limit"));
    assert!(bad_request_message(by_id(&responses, "s")).contains("exceeds the limit"));
    assert_eq!(
        by_id(&responses, "g").get("ok").and_then(Json::as_bool),
        Some(true)
    );
}

#[test]
fn the_binary_answers_the_request_after_a_non_utf8_line() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dnnip-serve"))
        .env("DNNIP_CACHE_PERSIST", "0")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dnnip-serve");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(b"\xff\xfe\n{\"id\":\"m\",\"op\":\"models\"}\n")
        .unwrap();
    let output = child.wait_with_output().expect("binary runs to completion");
    assert!(
        output.status.success(),
        "exit status {:?}, stderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let responses: Vec<Json> = stdout.lines().map(|l| Json::parse(l).unwrap()).collect();
    assert_eq!(responses.len(), 2, "stdout was: {stdout}");
    bad_request_message(&responses[0]);
    assert_eq!(responses[1].get("id").and_then(Json::as_str), Some("m"));
}

#[test]
fn the_binary_rejects_a_huge_synthetic_pool_and_serves_the_next_request() {
    use std::io::{BufRead, BufReader};

    // A trillion-sample pool once made the worker allocate 48 TB and abort
    // the process. Each line is answered before the next is sent, so the
    // two answers also come back in order.
    let mut child = Command::new(env!("CARGO_BIN_EXE_dnnip-serve"))
        .args(["--workers", "1"])
        .env("DNNIP_CACHE_PERSIST", "0")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dnnip-serve");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut ask = |line: &str| -> Json {
        writeln!(stdin, "{line}").unwrap();
        stdin.flush().unwrap();
        let mut answer = String::new();
        stdout.read_line(&mut answer).unwrap();
        Json::parse(answer.trim_end()).unwrap_or_else(|e| panic!("bad answer {answer:?}: {e}"))
    };
    let rejected = ask(
        r#"{"id":"p","model":"tiny-relu","budget":3,"pool":{"synthetic":1000000000000,"seed":1}}"#,
    );
    assert_eq!(rejected.get("id").and_then(Json::as_str), Some("p"));
    assert!(bad_request_message(&rejected).contains("exceeds the limit"));
    let models = ask(r#"{"id":"m","op":"models"}"#);
    assert_eq!(models.get("id").and_then(Json::as_str), Some("m"));
    assert_eq!(models.get("ok").and_then(Json::as_bool), Some(true));
    drop(stdin);
    let status = child.wait().expect("binary exits at EOF");
    assert!(status.success(), "exit status {status:?}");
}

#[test]
fn the_binary_serves_a_pipe_session_and_exits_zero() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dnnip-serve"))
        .args(["--workers", "2"])
        .env("DNNIP_CACHE_PERSIST", "0") // keep the test hermetic: no disk tier
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dnnip-serve");
    {
        let stdin = child.stdin.as_mut().unwrap();
        writeln!(
            stdin,
            r#"{{"id":"g","model":"tiny-relu","budget":2,"pool":{{"synthetic":8,"seed":1}}}}"#
        )
        .unwrap();
        writeln!(stdin, r#"{{"id":"s","op":"stats"}}"#).unwrap();
        writeln!(stdin, r#"{{"id":"z","op":"shutdown"}}"#).unwrap();
    }
    let output = child.wait_with_output().expect("binary runs to completion");
    assert!(
        output.status.success(),
        "exit status {:?}, stderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).unwrap();
    let responses: Vec<Json> = stdout
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bad line {l:?}: {e}")))
        .collect();
    assert_eq!(responses.len(), 3, "stdout was: {stdout}");
    assert_eq!(
        by_id(&responses, "g").get("ok").and_then(Json::as_bool),
        Some(true)
    );
    assert!(by_id(&responses, "s").get("cache").is_some());
    assert_eq!(
        by_id(&responses, "z")
            .get("shutdown")
            .and_then(Json::as_bool),
        Some(true)
    );
}

#[test]
fn the_binary_serves_a_unix_socket_session() {
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join(format!("dnnip-serve-sock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("serve.sock");
    let mut child = Command::new(env!("CARGO_BIN_EXE_dnnip-serve"))
        .args(["--workers", "1", "--socket"])
        .arg(&socket)
        .env("DNNIP_CACHE_PERSIST", "0")
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dnnip-serve");
    // The listener needs a moment to bind.
    let mut stream = None;
    for _ in 0..100 {
        match UnixStream::connect(&socket) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    }
    let mut stream = stream.expect("socket never came up");
    writeln!(
        stream,
        r#"{{"id":"g","model":"tiny-tanh","budget":2,"pool":{{"synthetic":6,"seed":3}}}}"#
    )
    .unwrap();
    writeln!(stream, r#"{{"id":"z","op":"shutdown"}}"#).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    let responses: Vec<Json> = reader
        .lines()
        .map_while(Result::ok)
        .map(|l| Json::parse(&l).unwrap())
        .collect();
    assert_eq!(responses.len(), 2);
    assert_eq!(
        by_id(&responses, "g").get("ok").and_then(Json::as_bool),
        Some(true)
    );
    assert_eq!(
        by_id(&responses, "z")
            .get("shutdown")
            .and_then(Json::as_bool),
        Some(true)
    );
    let status = child.wait().expect("binary exits after shutdown");
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&dir);
}
