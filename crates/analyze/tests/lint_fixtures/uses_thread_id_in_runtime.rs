// Fixture: a thread-identity read as it would look if it leaked into
// `crates/runtime`. The self-test scans this content under
// `crates/runtime/src/mailbox.rs` and `op_based.rs` and asserts the
// `thread-id` rule fires — the runtime crate has no path-level exemption
// and no allowlist entry.

pub fn sneaky_worker_key() -> u64 {
    let id = std::thread::current().id();
    format!("{id:?}").len() as u64
}
