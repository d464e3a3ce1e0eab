// Export the reproduced paper tables as CSV files and a schedule in the
// sysgo-schedule text format — the artifacts a downstream user plots or
// feeds back to `sysgo audit` / `sysgo simulate`.
//
//   $ ./export_tables [output-dir]
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "io/csv.hpp"
#include "io/protocol_text.hpp"
#include "protocol/builders.hpp"
#include "topology/de_bruijn.hpp"

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  const fs::path dir = argc > 1 ? argv[1] : "sysgo-tables";
  fs::create_directories(dir);

  const auto write = [&](const fs::path& name, const std::string& content) {
    std::ofstream out(dir / name);
    out << content;
    std::printf("wrote %s (%zu bytes)\n", (dir / name).c_str(), content.size());
  };

  write("fig4_general_bound.csv", sysgo::io::fig4_csv());
  write("fig5_systolic_topologies.csv", sysgo::io::fig5_csv());
  write("fig6_nonsystolic_topologies.csv", sysgo::io::fig6_csv());
  write("fig8_full_duplex.csv", sysgo::io::fig8_csv());

  const auto g = sysgo::topology::de_bruijn(2, 4);
  const auto sched = sysgo::protocol::edge_coloring_schedule(
      g, sysgo::protocol::Mode::kHalfDuplex);
  write("de_bruijn_2_4_schedule.txt", sysgo::io::serialize(sched));

  std::printf("\nAudit the schedule with:  sysgo audit %s\n",
              (dir / "de_bruijn_2_4_schedule.txt").c_str());
  return 0;
}
