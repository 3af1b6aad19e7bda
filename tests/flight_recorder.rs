//! End-to-end flight-recorder tests: the black-box dump must appear when a
//! process panics through the installed hook and must be *redacted* —
//! panic messages and secret values never reach the file; only the closed
//! `ObsValue` event payloads and static reason strings do. The scheduler's
//! protocol-error dump is covered by a unit test in
//! `fedroad-mpc::scheduler`, the only place that can reach that branch.
//!
//! Own test binary: these tests flip the global flight sink, so they
//! serialize on [`GATE`] and nothing else in the process records.

use fedroad::obs::flight;
use fedroad::obs::ObsValue;
use std::path::PathBuf;

static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Points dumps at a per-test directory under the target tree and starts
/// a clean capture.
fn fresh_flight(subdir: &str) -> PathBuf {
    let dir = PathBuf::from("target/flight-test").join(subdir);
    let _ = std::fs::remove_dir_all(&dir);
    flight::set_dump_dir(&dir);
    flight::enable(Some(64));
    flight::clear_for_test();
    dir
}

fn read_dump(reason: &str) -> String {
    let path = flight::dump_path(reason);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("black box {} must exist: {e}", path.display()))
}

#[test]
fn panic_hook_dumps_without_the_panic_message() {
    let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
    fresh_flight("panic");
    flight::install_panic_hook();
    fedroad::obs::instant("test.pre_panic", &[("n", ObsValue::Count(1))]);

    let result = std::panic::catch_unwind(|| {
        panic!("share word was 12345678901234");
    });
    assert!(result.is_err());

    let text = read_dump("panic");
    flight::validate_dump(&text).expect("well-formed black box");
    assert!(text.contains("\"reason\":\"panic\""));
    assert!(text.contains("test.pre_panic"));
    assert!(
        !text.contains("12345678901234") && !text.contains("share word"),
        "panic message leaked into the black box:\n{text}"
    );
    flight::disable();
}

#[test]
fn dump_on_error_is_inert_when_flight_is_off() {
    let _g = GATE.lock().unwrap_or_else(|p| p.into_inner());
    let dir = PathBuf::from("target/flight-test/inert");
    let _ = std::fs::remove_dir_all(&dir);
    flight::set_dump_dir(&dir);
    flight::disable();
    assert_eq!(flight::dump_on_error("protocol-error"), None);
    assert!(!dir.exists(), "disabled flight recorder must not write");
}
