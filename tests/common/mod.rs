//! Helpers shared by the integration-test binaries that kill collectors.

use std::sync::Once;

/// Installs, once per test binary, a panic hook that drops the expected
/// panics — injected collector panics and the watchdog's cycle abort —
/// and hands every other panic to the default hook, so a real failure
/// still prints.  The hook is process-global and the tests of a binary
/// run in parallel, so no test swaps it for itself.
pub fn silence_injected_panics() {
    static SILENCE: Once = Once::new();
    SILENCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            if !msg.starts_with("injected collector panic") && !msg.starts_with("otf-gc watchdog") {
                default(info);
            }
        }));
    });
}
