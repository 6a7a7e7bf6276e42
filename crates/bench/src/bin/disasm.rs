//! Developer tool: disassemble a scenario's linked image.
//!
//! ```sh
//! cargo run --release -p fracas-bench --bin disasm -- is-ser-1-sira32 [max_lines]
//! ```

use fracas::isa::Section;
use fracas::npb::Scenario;

fn main() {
    let mut args = std::env::args().skip(1);
    let id = args.next().unwrap_or_else(|| "is-ser-1-sira64".to_string());
    let max: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(120);

    let Some(scenario) = Scenario::from_id(&id) else {
        eprintln!("no suite scenario has id `{id}` (expected e.g. ft-mpi-4-sira64)");
        std::process::exit(2);
    };
    let image = scenario.build().unwrap_or_else(|e| panic!("{id}: {e}"));

    println!(
        "{id}: {} instructions, {} bytes data template, entry {:#010x}",
        image.text.len(),
        image.data_size(),
        image.entry
    );
    let mut last_fn = String::new();
    for (i, inst) in image.text.iter().enumerate() {
        if i >= max {
            println!("... ({} more instructions)", image.text.len() - i);
            break;
        }
        let addr = image.text_base + (i as u32) * 4;
        if let Some(sym) = image.symbols.function_at(addr) {
            if sym.name != last_fn {
                last_fn = sym.name.clone();
                println!("\n<{}>:", sym.name);
            }
        }
        println!("  {addr:#010x}:  {:08x}  {inst}", fracas::isa::encode(inst));
    }
    println!("\ndata symbols (GB-relative):");
    let mut data: Vec<_> = image
        .symbols
        .iter()
        .filter(|s| s.section == Section::Data)
        .collect();
    data.sort_by_key(|s| s.value);
    for s in data.iter().take(40) {
        println!("  +{:#06x}  {}", s.value, s.name);
    }
}
