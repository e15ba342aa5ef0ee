//! Replay across a connection the server announced it was closing.
//!
//! A fake server answers the first connection with `503` +
//! `Connection: close` and drops it, the way `raysearchd`'s acceptor
//! sheds; every later connection gets `200`s on a keep-alive stream.
//! The shed is a crash-like refusal, not a wrong answer, and must not
//! cost the next entry: replay has to reconnect for it instead of
//! sending it on the dead socket and counting a transport error.

use std::io::BufReader;
use std::net::{TcpListener, TcpStream};

use raysearch_service::http::{read_request, Response};
use raysearch_service::replay::replay;
use raysearch_service::tape::{Tape, TapeEntry};

const BODY: &str = "{\"ok\":true}";

/// Serves one connection: the first connection sheds its first
/// request and closes, later ones answer `200` until the peer leaves.
fn serve(index: usize, stream: TcpStream) {
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    while read_request(&mut reader).is_ok() {
        if index == 0 {
            // read the request before closing, so the close is a clean
            // FIN after the response rather than a reset over unread bytes
            Response::shed("server overloaded, try again")
                .write_to(&mut writer, false)
                .expect("write the shed");
            return;
        }
        if Response::ok(BODY).write_to(&mut writer, true).is_err() {
            return;
        }
    }
}

#[test]
fn replay_reconnects_after_a_connection_close_shed() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("local addr").to_string();
    let ok = Response::ok(BODY);
    let tape = Tape {
        entries: (0..3)
            .map(|tick| TapeEntry::observe(tick, "GET", "/closed_form?k=3&f=1", "", &ok))
            .collect(),
    };
    // one replay worker uses its connections one after another, and
    // opens exactly two: the shed one and the one after it
    let report = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            for (index, stream) in listener.incoming().take(2).enumerate() {
                serve(index, stream.expect("accept"));
            }
        });
        let report = replay(&addr, &tape, 1).expect("replay");
        server.join().expect("fake server");
        report
    });
    assert_eq!(report.requests, 3, "{}", report.fingerprint());
    assert_eq!(report.sheds, 1, "{}", report.fingerprint());
    assert_eq!(report.transport_errors, 0, "{}", report.fingerprint());
    assert_eq!(report.matched, 2, "{}", report.fingerprint());
    assert_eq!(report.mismatched, 0, "{:?}", report.mismatch_details);
}
