//! The characterization memo must not change a sweep's answer: a capacity
//! sweep in a process that has characterized nothing yet, and the same
//! sweep served wholly from the memo, agree bit for bit. The file holds one
//! test because each integration-test file is a process of its own, so no
//! other test can warm the memo before the first sweep.

use ppatc::checkpoint::Checkpointable;
use ppatc::Supervisor;
use ppatc_bench::capacity::{try_sweep_supervised, CapacityPoint};

/// Every point's exact `f64` bit patterns (`==` admits `-0.0 == 0.0`).
fn bits(points: &[CapacityPoint]) -> Vec<u64> {
    let mut words = Vec::new();
    for p in points {
        p.encode(&mut words);
    }
    words
}

#[test]
fn warm_capacity_sweep_equals_the_cold_one() {
    assert_eq!(
        ppatc_edram::characterization_cache_len(),
        0,
        "the memo must be empty before the cold sweep"
    );
    let cold = try_sweep_supervised(1, &Supervisor::new()).expect("cold sweep evaluates");
    assert_eq!(
        ppatc_edram::characterization_cache_len(),
        10,
        "the cold sweep characterizes 5 capacities in 2 technologies"
    );
    let warm = try_sweep_supervised(1, &Supervisor::new()).expect("warm sweep evaluates");
    assert_eq!(
        ppatc_edram::characterization_cache_len(),
        10,
        "the warm sweep must characterize nothing new"
    );
    assert_eq!(warm, cold);
    assert_eq!(bits(&warm), bits(&cold));
}
