//! Fault-injection study (beyond the paper): sensor-noise and
//! core-failure sweeps plus the graceful-degradation scenarios.

fn main() {
    vasp_bench::figures::standalone(vasp_bench::figures::faults);
}
