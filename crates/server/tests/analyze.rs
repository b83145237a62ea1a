//! In-process tests of the `env/analyze` method: the report's shape, its
//! determinism, dead-declaration detection over the wire, and the analysis
//! counters in `server/stats`.

use insynth_core::{Engine, SynthesisConfig};
use insynth_server::{Json, Server, ServerConfig};

fn server() -> Server {
    Server::new(
        Engine::new(SynthesisConfig::default()),
        ServerConfig::default(),
    )
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

const OPEN: &str = r#"{"id":1,"method":"env/open","params":{"env":[
    {"name":"a","ty":"A","kind":"local"},
    {"name":"s","ty":{"args":["A"],"ret":"A"},"kind":"imported"},
    {"name":"dead","ty":{"args":["Missing"],"ret":"A"},"kind":"imported"}
]}}"#;

#[test]
fn env_analyze_reports_dead_decls_and_is_deterministic() {
    let server = server();
    let open = server.handle_line(&OPEN.replace('\n', " "));
    assert_eq!(field(&open, &["result", "session"]).as_u64(), Some(1));

    let request = r#"{"id":2,"method":"env/analyze","params":{"session":1}}"#;
    let first = server.handle_line(request);
    let second = server.handle_line(request);
    assert_eq!(
        first.to_string().replace("\"id\":2", ""),
        second.to_string().replace("\"id\":2", ""),
        "repeated analyses must be byte-identical"
    );

    let result = field(&first, &["result"]);
    assert_eq!(field(result, &["decl_count"]).as_u64(), Some(3));
    assert_eq!(field(result, &["weights_monotone"]).as_bool(), Some(true));
    // `dead : Missing -> A` is index 2 in the canonical declaration list.
    let dead: Vec<u64> = field(result, &["dead_decls"])
        .as_arr()
        .expect("dead_decls array")
        .iter()
        .map(|v| v.as_u64().expect("index"))
        .collect();
    assert_eq!(dead, [2]);
    let codes: Vec<&str> = field(result, &["diagnostics"])
        .as_arr()
        .expect("diagnostics array")
        .iter()
        .map(|d| d.get("code").and_then(Json::as_str).expect("code"))
        .collect();
    assert!(codes.contains(&"dead-decl"), "codes: {codes:?}");
    assert!(codes.contains(&"uninhabitable-type"), "codes: {codes:?}");

    // The second call reused the point's report: one analysis ran, two were
    // served.
    let stats =
        server.handle_line(r#"{"id":4,"method":"server/stats","params":{"counters_only":true}}"#);
    let engine = field(&stats, &["result", "engine"]);
    assert_eq!(field(engine, &["analysis_count"]).as_u64(), Some(1));
    assert_eq!(
        field(&stats, &["result", "requests", "env/analyze"]).as_u64(),
        Some(2)
    );
}

#[test]
fn env_analyze_requires_an_open_session() {
    let server = server();
    let reply = server.handle_line(r#"{"id":1,"method":"env/analyze","params":{"session":7}}"#);
    assert_eq!(field(&reply, &["error", "code"]).as_f64(), Some(-32000.0));
}
