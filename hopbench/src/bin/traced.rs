//! `hopbench-traced`: the benchmark linked with the counting allocator.
//! Runs only with `--trace 1`.

#[global_allocator]
static ALLOC: hopbench::alloc::CountingAlloc = hopbench::alloc::CountingAlloc;

fn main() {
    std::process::exit(hopbench::main_with(hopbench::Build::Traced));
}
