//! Table 5: per-application dynamic power (4 GHz / 1 V) and IPC.

fn main() {
    vasp_bench::figures::standalone(vasp_bench::figures::table5);
}
