//! End-to-end test of the `insynth-server` binary: spawn it, drive the
//! scripted stdio session (open → complete → paginate → update → complete →
//! cancel → stats → close → malformed line), and hold the transcript to the
//! acceptance bar — byte-identical across runs, pagination resumes with
//! zero extra graph builds, and a cancelled request gets a well-formed
//! error reply while the loop keeps serving.

use std::io::Write;
use std::process::{Command, Stdio};

use insynth_server::{parse_json, Json};

const SCRIPT: &str = include_str!("data/script.jsonl");

/// Runs the binary over the scripted session and returns raw stdout.
fn run_scripted_session(extra_args: &[&str]) -> String {
    run_session(SCRIPT, extra_args)
}

/// Runs the binary over `script` and returns raw stdout.
fn run_session(script: &str, extra_args: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_insynth-server"))
        .args(extra_args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn insynth-server");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("write script");
    // Dropping stdin (write_all's temporary) closes it; the server exits at
    // EOF once every response is flushed.
    let output = child.wait_with_output().expect("collect output");
    assert!(
        output.status.success(),
        "server exited with {:?}, stderr: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("responses are UTF-8")
}

fn field<'a>(response: &'a Json, path: &[&str]) -> &'a Json {
    let mut cur = response;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing {path:?} in {response}"));
    }
    cur
}

fn terms(result: &Json) -> Vec<String> {
    field(result, &["result", "values"])
        .as_arr()
        .expect("values array")
        .iter()
        .map(|v| {
            v.get("term")
                .and_then(Json::as_str)
                .expect("term")
                .to_string()
        })
        .collect()
}

#[test]
fn scripted_session_is_byte_stable_and_honors_the_protocol() {
    let first = run_scripted_session(&[]);
    let second = run_scripted_session(&[]);
    assert_eq!(first, second, "transcripts differ between runs");

    let responses: Vec<Json> = first
        .lines()
        .map(|l| parse_json(l).expect("response JSON"))
        .collect();
    assert_eq!(responses.len(), 12, "one response per script line");

    // Responses come back in request order; the malformed final line
    // answers with id null.
    for (i, response) in responses.iter().take(11).enumerate() {
        assert_eq!(
            field(response, &["id"]).as_u64(),
            Some(i as u64 + 1),
            "out-of-order response: {response}"
        );
    }

    // 1: env/open — session 1, both declarations, a stable fingerprint.
    assert_eq!(
        field(&responses[0], &["result", "session"]).as_u64(),
        Some(1)
    );
    assert_eq!(field(&responses[0], &["result", "decls"]).as_u64(), Some(2));
    let fingerprint = field(&responses[0], &["result", "fingerprint"])
        .as_str()
        .expect("fingerprint string");
    assert_eq!(fingerprint.len(), 32, "u128 hex fingerprint");

    // 2: first page — the three cheapest inhabitants of A, more available.
    assert_eq!(terms(&responses[1]), ["a", "s(a)", "s(s(a))"]);
    assert_eq!(
        field(&responses[1], &["result", "has_more"]).as_bool(),
        Some(true)
    );
    assert_eq!(
        field(&responses[1], &["result", "resumed"]).as_bool(),
        Some(false)
    );
    assert_eq!(
        field(&responses[1], &["result", "cursor"]).as_u64(),
        Some(3)
    );

    // 3: continuation — resumes the suspended walk, next two terms.
    assert_eq!(terms(&responses[2]), ["s(s(s(a)))", "s(s(s(s(a))))"]);
    assert_eq!(
        field(&responses[2], &["result", "resumed"]).as_bool(),
        Some(true)
    );
    assert_eq!(
        field(&responses[2], &["result", "cursor"]).as_u64(),
        Some(5)
    );

    // 4: stats after open + page + continuation — one σ run, one graph
    // build: the paginated continuation cost zero extra builds.
    let engine = field(&responses[3], &["result", "engine"]);
    assert_eq!(field(engine, &["prepare_count"]).as_u64(), Some(1));
    assert_eq!(field(engine, &["graph_build_count"]).as_u64(), Some(1));
    assert_eq!(field(engine, &["graph_patch_count"]).as_u64(), Some(0));
    assert_eq!(field(engine, &["suspended_walk_count"]).as_u64(), Some(1));

    // 5: env/update — same session id, new fingerprint, three decls.
    assert_eq!(
        field(&responses[4], &["result", "session"]).as_u64(),
        Some(1)
    );
    assert_eq!(field(&responses[4], &["result", "decls"]).as_u64(), Some(3));
    assert_ne!(
        field(&responses[4], &["result", "fingerprint"]).as_str(),
        Some(fingerprint),
        "the edited point has a new content address"
    );

    // 6: the edited environment surfaces `b` on the first page.
    assert_eq!(terms(&responses[5]), ["a", "b", "s(a)"]);
    assert_eq!(
        field(&responses[5], &["result", "resumed"]).as_bool(),
        Some(false)
    );

    // 7: $/cancel for a not-yet-arrived id is remembered.
    assert_eq!(
        field(&responses[6], &["result", "cancelled"]).as_u64(),
        Some(8)
    );
    assert_eq!(
        field(&responses[6], &["result", "in_flight"]).as_bool(),
        Some(false)
    );

    // 8: the cancelled request gets a well-formed error reply...
    assert_eq!(
        field(&responses[7], &["error", "code"]).as_f64(),
        Some(-32001.0)
    );
    assert_eq!(
        field(&responses[7], &["error", "message"]).as_str(),
        Some("request cancelled")
    );

    // 9: ...and the loop keeps serving: the next completion resumes the
    // walk request 6 parked.
    assert_eq!(terms(&responses[8]), ["a"]);
    assert_eq!(
        field(&responses[8], &["result", "resumed"]).as_bool(),
        Some(true)
    );

    // 10: final counters — the whole session's economics, deterministic.
    let result = field(&responses[9], &["result"]);
    assert_eq!(field(result, &["sessions"]).as_u64(), Some(1));
    assert_eq!(
        field(result, &["engine", "prepare_count"]).as_u64(),
        Some(2)
    );
    // The update adds a second `A` local, a σ-inert edit: the edited point
    // patches the first graph instead of building its own.
    assert_eq!(
        field(result, &["engine", "graph_build_count"]).as_u64(),
        Some(1)
    );
    assert_eq!(
        field(result, &["engine", "graph_patch_count"]).as_u64(),
        Some(1)
    );
    assert_eq!(field(result, &["completions", "count"]).as_u64(), Some(4));
    assert_eq!(field(result, &["completions", "values"]).as_u64(), Some(9));
    assert_eq!(field(result, &["completions", "resumed"]).as_u64(), Some(2));
    assert_eq!(
        field(result, &["completions", "cancelled"]).as_u64(),
        Some(1)
    );
    assert_eq!(
        field(result, &["requests", "completion/complete"]).as_u64(),
        Some(5)
    );
    assert_eq!(field(result, &["requests", "$/cancel"]).as_u64(), Some(1));

    // 11: close.
    assert_eq!(
        field(&responses[10], &["result", "closed"]).as_u64(),
        Some(1)
    );

    // 12: the non-JSON line answers with a parse error and id null.
    assert!(field(&responses[11], &["id"]).is_null());
    assert_eq!(
        field(&responses[11], &["error", "code"]).as_f64(),
        Some(-32700.0)
    );
}

#[test]
fn pooled_server_still_answers_in_arrival_order() {
    // A 4-worker pool may interleave execution (so counters and even
    // individual outcomes can differ from the sequential run — a completion
    // can race ahead of the open it depends on), but the output sequencer
    // guarantees the *order* of replies always matches the order of
    // requests.
    let pooled = run_scripted_session(&["--workers", "4"]);
    let responses: Vec<Json> = pooled
        .lines()
        .map(|l| parse_json(l).expect("response JSON"))
        .collect();
    assert_eq!(responses.len(), 12);
    for (i, response) in responses.iter().take(11).enumerate() {
        assert_eq!(field(response, &["id"]).as_u64(), Some(i as u64 + 1));
    }
    assert!(field(&responses[11], &["id"]).is_null());
}

#[test]
fn pages_never_exceed_the_protocol_limit_of_100_values() {
    // `s : A -> A` makes A infinitely inhabited, so a 250-value page has
    // more to offer than any page may hold.
    let script = concat!(
        r#"{"id": 1, "method": "env/open", "params": {"env": [{"name": "a", "ty": "A"}, "#,
        r#"{"name": "s", "ty": {"args": ["A"], "ret": "A"}}]}}"#,
        "\n",
        r#"{"id": 2, "method": "completion/complete", "params": {"session": 1, "goal": "A", "n": 250}}"#,
        "\n",
    );
    for args in [&[][..], &["--max-n", "250"][..]] {
        let output = run_session(script, args);
        let page =
            parse_json(output.lines().nth(1).expect("a completion reply")).expect("response JSON");
        assert_eq!(terms(&page).len(), 100, "page size with args {args:?}");
        assert_eq!(
            field(&page, &["result", "has_more"]).as_bool(),
            Some(true),
            "with args {args:?}"
        );
    }
}
