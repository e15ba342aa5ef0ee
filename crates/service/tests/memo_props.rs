//! Property test: the cached and uncached evaluation paths return
//! bit-identical `EvalReport`s across a random grid of `(m, k, f,
//! horizon)` instances.
//!
//! The memo layer stores the *serialized* payload, so the guarantee the
//! service makes — repeated identical requests get byte-identical
//! deterministic JSON bodies — reduces to: the payload a cold
//! `POST /evaluate` through [`ServiceState::handle`] returns equals a
//! fresh, cache-free call of [`evaluate_optimal`] serialized the same
//! way, and a second (cached) request returns the same bytes again.
//! Float fields are additionally compared by `to_bits`, which is
//! stricter than `==` (it distinguishes `-0.0` and would catch a
//! formatting round-trip loss).

use proptest::prelude::*;
use raysearch_core::evaluate_optimal;
use raysearch_service::http::Request;
use raysearch_service::ServiceState;
use serde_json::Value;

/// Builds a POST request the way a wire client would.
fn evaluate_request(m: u32, k: u32, f: u32, horizon: f64) -> Request {
    Request {
        method: "POST".to_owned(),
        version: "HTTP/1.1".to_owned(),
        path: "/evaluate".to_owned(),
        query: Vec::new(),
        headers: Vec::new(),
        body: format!("{{\"m\":{m},\"k\":{k},\"f\":{f},\"horizon\":{horizon}}}").into_bytes(),
    }
}

fn ratio_bits(payload: &Value) -> u64 {
    payload
        .get("result")
        .and_then(|r| r.get("report"))
        .and_then(|r| r.get("ratio"))
        .and_then(Value::as_f64)
        .expect("payload carries a ratio")
        .to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cached_equals_uncached_bit_for_bit(
        m in 2u32..5,
        k in 1u32..7,
        f in 0u32..4,
        horizon_exp in 3u32..6,
    ) {
        // restrict to the searchable regime (f < k and k < q = m(f+1))
        prop_assume!(f < k && k < m * (f + 1));
        let horizon = 10f64.powi(horizon_exp as i32);

        // uncached ground truth: straight through the core entry point
        let direct = evaluate_optimal(m, k, f, horizon).expect("searchable instance evaluates");
        let direct_report = serde_json::to_value(direct).unwrap().to_json_string();

        // the service path: first request computes, second is a memo hit
        let state = ServiceState::new(64, 4);
        let req = evaluate_request(m, k, f, horizon);
        let first = state.handle(&req);
        let second = state.handle(&req);
        prop_assert_eq!(first.status, 200);
        prop_assert_eq!(second.status, 200);

        let first_doc: Value = serde_json::from_str(&first.body).unwrap();
        let second_doc: Value = serde_json::from_str(&second.body).unwrap();
        prop_assert_eq!(first_doc.get("cached").and_then(Value::as_bool), Some(false));
        prop_assert_eq!(second_doc.get("cached").and_then(Value::as_bool), Some(true));

        // the payloads are byte-identical between the two requests...
        let first_payload = first_doc.get("result").unwrap().to_json_string();
        let second_payload = second_doc.get("result").unwrap().to_json_string();
        prop_assert_eq!(&first_payload, &second_payload);

        // ...and the embedded report equals the cache-free serialization
        let embedded = first_doc
            .get("result")
            .and_then(|r| r.get("report"))
            .expect("payload embeds the report")
            .to_json_string();
        prop_assert_eq!(&embedded, &direct_report);

        // float bit patterns agree exactly with the direct evaluation
        prop_assert_eq!(ratio_bits(&first_doc), direct.ratio.to_bits());
        prop_assert_eq!(ratio_bits(&second_doc), direct.ratio.to_bits());

        // the stats counters saw exactly one miss and one hit
        let stats = state.cache_stats();
        prop_assert_eq!(stats.misses, 1);
        prop_assert_eq!(stats.hits, 1);
        prop_assert_eq!(stats.entries, 1);
    }
}
