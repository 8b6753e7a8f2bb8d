//! The hardware thread count is probed once per process, while
//! `RFKIT_THREADS` keeps taking effect on every call.
//!
//! Telemetry arming and the environment are process state, so this file
//! holds exactly one test.

use rfkit_obs::{profile, TraceConfig};
use rfkit_par::{num_threads, par_map};

#[test]
fn hardware_count_is_probed_once_and_the_override_stays_live() {
    let path = std::env::temp_dir().join(format!(
        "rfkit_par_thread_count_{}.json",
        std::process::id()
    ));
    rfkit_obs::init(&TraceConfig {
        trace: true,
        log: false,
        out: Some(path.clone()),
        ..TraceConfig::default()
    });
    std::env::remove_var("RFKIT_THREADS");
    let hardware = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(64);

    // Small batches run serially, large ones resolve the thread count.
    let small: Vec<u64> = (0..8).collect();
    let large: Vec<u64> = (0..200).collect();
    for round in 0..500 {
        assert_eq!(par_map(&small, |x| x + round)[7], 7 + round);
        assert_eq!(par_map(&large, |x| x * round)[199], 199 * round);
        assert_eq!(num_threads(), hardware);
    }

    // Set after the hardware count is cached, the override still wins.
    std::env::set_var("RFKIT_THREADS", "3");
    assert_eq!(num_threads(), 3);
    std::env::set_var("RFKIT_THREADS", "1");
    assert_eq!(num_threads(), 1);
    let caller = std::thread::current().id();
    let ran_on = par_map(&large, |_| std::thread::current().id());
    assert!(
        ran_on.iter().all(|&id| id == caller),
        "RFKIT_THREADS=1 must keep a large batch on the caller"
    );
    std::env::remove_var("RFKIT_THREADS");
    assert_eq!(num_threads(), hardware);

    rfkit_obs::flush();
    let text = std::fs::read_to_string(&path).expect("armed run wrote a profile");
    let _ = std::fs::remove_file(&path);
    let p = profile::parse(&text).expect("profile parses");
    assert_eq!(
        p.counters.get("par.hw_probe"),
        Some(&1),
        "hardware count probed more than once: {:?}",
        p.counters
    );
}
