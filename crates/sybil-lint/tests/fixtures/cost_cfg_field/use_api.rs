// Keeps the fixture's exports alive for S104: Counter, serve.

fn main() {
    let _ = cost_cfg_field::serve(1);
    let _: Option<cost_cfg_field::Counter> = None;
}
