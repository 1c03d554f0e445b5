//! The fleet worker process `FleetPool` spawns, built next to the
//! benchmark binary so the pool finds it there.

fn main() {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    if let Err(e) = accesys_fleet::serve_fleet_worker(&mut stdin.lock(), &mut stdout.lock()) {
        eprintln!("accesys-fleet-worker: {e}");
        std::process::exit(1);
    }
}
