//! Ablations of LinOpt's design choices (DESIGN.md §5).

fn main() {
    vasp_bench::figures::standalone(vasp_bench::figures::ablations);
}
