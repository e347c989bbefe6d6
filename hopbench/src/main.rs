//! `hopbench`: untraced benchmark runs, and the serving child process.

fn main() {
    std::process::exit(hopbench::main_with(hopbench::Build::Plain));
}
