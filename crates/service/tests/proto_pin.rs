//! The shard protocol's payload bytes are a format, not an implementation
//! detail: a router and a `netclus-shardd` built from different commits
//! talk over them, and `SHARD_PROTOCOL_VERSION` is the only thing that
//! tells a peer the layout moved. The bytes below are protocol version 3;
//! each test encodes a message and compares it with them, then decodes
//! them back. A change that moves a byte without bumping the version
//! fails here.
//!
//! Version 3 dropped `Round1`'s epoch hint (`u64`) and solver selector
//! (`u8`), so a `Round1` payload is 30 bytes where version 2 wrote 39,
//! and `ApplyAck`'s live count (`u64`), so an `ApplyAck` is 8 bytes
//! shorter.

use netclus::TopsQuery;
use netclus_service::shard_proto::{round1_request, Request, Response, SHARD_PROTOCOL_VERSION};

/// `Hello { version: 3, shard: 2 }`: tag 0, version `u32`, shard `u32`
/// (the version byte also pins `SHARD_PROTOCOL_VERSION` at 3).
const HELLO: [u8; 9] = [
    0x00, // tag
    0x03, 0x00, 0x00, 0x00, // version
    0x02, 0x00, 0x00, 0x00, // shard
];

/// `round1_request(1, &TopsQuery::binary(4, 1_200.0))`: tag 1, shard
/// `u32`, `k` `u64`, τ as `f64` bits, ψ tag `u8` (0 = binary), ψ
/// parameter `u64`.
const ROUND1: [u8; 30] = [
    0x01, // tag
    0x01, 0x00, 0x00, 0x00, // shard
    0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // k
    0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x92, 0x40, // τ = 1 200.0
    0x00, // ψ tag
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // ψ parameter
];

/// `ApplyAck { epoch: 6, results: [true, false, true] }`: tag 2, epoch
/// `u64`, result count `u32`, one byte per result.
const APPLY_ACK: [u8; 16] = [
    0x02, // tag
    0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // epoch
    0x03, 0x00, 0x00, 0x00, // result count
    0x01, 0x00, 0x01, // results
];

#[test]
fn hello_payload_is_pinned() {
    let hello = Request::Hello {
        version: SHARD_PROTOCOL_VERSION,
        shard: 2,
    };
    assert_eq!(hello.encode(), HELLO);
    assert_eq!(Request::decode(&HELLO), Ok(hello));
}

#[test]
fn round1_payload_is_pinned() {
    let round1 = round1_request(1, &TopsQuery::binary(4, 1_200.0));
    assert_eq!(round1.encode(), ROUND1);
    assert_eq!(Request::decode(&ROUND1), Ok(round1));
}

#[test]
fn apply_ack_payload_is_pinned() {
    let ack = Response::ApplyAck {
        epoch: 6,
        results: vec![true, false, true],
    };
    assert_eq!(ack.encode(), APPLY_ACK);
    assert_eq!(Response::decode(&APPLY_ACK), Ok(ack));
}
