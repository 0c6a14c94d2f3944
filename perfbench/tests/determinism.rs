//! The same seed gives byte-identical inputs; another seed gives other
//! request streams and schedules over the same instance.

use perfbench::spec::{rung_schedule, small_instance_gr, stream, Sampler, Spec, Stream, WORKLOADS};
use spsep::serve::protocol::encode_request;

/// Every input a run of `workload` sends, as bytes: the instance (for
/// the generated one), each rung's schedule and requests, and the head
/// of the warm-up and closed-loop streams.
fn inputs(workload: &str, seed: u64) -> Vec<u8> {
    let spec = Spec::named(workload).expect("known workload");
    let mut out = if spec.road {
        Vec::new()
    } else {
        small_instance_gr()
    };
    let n = if spec.road { 24_000 } else { 256 };
    let sampler = Sampler::new(&spec, n, seed);
    for (k, &rate) in spec.rates.iter().enumerate() {
        for a in rung_schedule(&sampler, seed, k, rate, 2.0) {
            out.extend_from_slice(&a.at.to_bits().to_le_bytes());
            out.extend(encode_request(&a.request));
        }
    }
    for s in [stream::WARMUP, stream::CLOSED, stream::CLOSED + 1] {
        let mut requests = Stream::new(seed, s);
        for _ in 0..200 {
            out.extend(encode_request(&requests.next(&sampler)));
        }
    }
    out
}

#[test]
fn same_seed_same_bytes_other_seed_other_bytes() {
    for w in WORKLOADS {
        let a = inputs(w, 11);
        assert!(!a.is_empty());
        assert_eq!(a, inputs(w, 11), "{w}: seed 11 twice");
        assert_ne!(a, inputs(w, 12), "{w}: seeds 11 and 12");
    }
}

#[test]
fn small_instance_is_fixed() {
    let gr = small_instance_gr();
    assert!(gr.starts_with(b"p sp 256 "));
    assert_eq!(gr, small_instance_gr());
}
