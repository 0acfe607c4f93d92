// Table 2 — source lines of code per protocol plug-in.
//
// The paper's headline: each protocol realized in G-DUR takes 200-600 SLOC,
// an order of magnitude less than the monolithic originals (6,000-30,000).
// This binary counts the SLOC of our plug-in files (comments and blank
// lines excluded, like the paper) plus the shared engine per module, and
// prints the comparison against the originals' sizes quoted in the paper.
// It exits 1 when a plug-in exceeds the paper's 600-SLOC envelope.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

namespace {

int sloc_of(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "warning: cannot open %s\n", path.c_str());
    return 0;
  }
  int lines = 0;
  std::string line;
  bool in_block_comment = false;
  while (std::getline(in, line)) {
    // Strip leading whitespace.
    std::size_t i = line.find_first_not_of(" \t");
    if (i == std::string::npos) continue;
    const std::string body = line.substr(i);
    if (in_block_comment) {
      if (body.find("*/") != std::string::npos) in_block_comment = false;
      continue;
    }
    if (body.rfind("//", 0) == 0) continue;
    if (body.rfind("/*", 0) == 0) {
      if (body.find("*/") == std::string::npos) in_block_comment = true;
      continue;
    }
    ++lines;
  }
  return lines;
}

int sloc_of_all(const std::vector<std::string>& files) {
  int total = 0;
  for (const auto& f : files) total += sloc_of(std::string(GDUR_SOURCE_DIR) + "/" + f);
  return total;
}

}  // namespace

int main() {
  struct Row {
    const char* protocol;
    std::vector<std::string> files;
    int paper_gdur;     // SLOC of the paper's G-DUR realization (Table 2)
    int paper_original; // SLOC of the monolithic original (0 = N/A)
  };
  const std::vector<Row> rows = {
      {"P-Store", {"src/protocols/p_store.cpp"}, 179, 6000},
      {"S-DUR", {"src/protocols/s_dur.cpp", "src/protocols/common.cpp"}, 397, 0},
      {"GMU", {"src/protocols/gmu.cpp"}, 476, 6000},
      {"Serrano", {"src/protocols/serrano.cpp"}, 351, 0},
      {"Walter", {"src/protocols/walter.cpp", "src/protocols/common.cpp"}, 599,
       30000},
      {"Jessy2pc", {"src/protocols/jessy2pc.cpp"}, 352, 6000},
  };

  std::printf("# Table 2 — source lines of code per protocol\n");
  std::printf("# %-10s %12s %14s %16s\n", "protocol", "this repo",
              "paper(G-DUR)", "paper(original)");
  bool all_small = true;
  for (const auto& r : rows) {
    const int mine = sloc_of_all(r.files);
    all_small = all_small && mine > 0 && mine <= 600;
    if (r.paper_original > 0) {
      std::printf("  %-10s %12d %14d %16d\n", r.protocol, mine, r.paper_gdur,
                  r.paper_original);
    } else {
      std::printf("  %-10s %12d %14d %16s\n", r.protocol, mine, r.paper_gdur,
                  "N/A");
    }
  }

  struct Module {
    const char* name;
    std::vector<std::string> files;
  };
  const std::vector<Module> engine_modules = {
      {"replica", {"src/core/replica.cpp"}},
      {"commitment engines",
       {"src/core/commitment.cpp", "src/core/commitment.h"}},
      {"cluster", {"src/core/cluster.cpp"}},
      {"spec + certifiers",
       {"src/core/protocol_spec.cpp", "src/core/certifiers.cpp"}},
  };
  std::printf("\n# shared G-DUR engine, SLOC per module\n");
  int engine = 0;
  for (const auto& m : engine_modules) {
    const int n = sloc_of_all(m.files);
    engine += n;
    std::printf("  %-20s %6d\n", m.name, n);
  }
  const int comm = sloc_of_all({
      "src/comm/atomic_broadcast.cpp", "src/comm/skeen_multicast.cpp",
      "src/comm/reliable_multicast.cpp", "src/net/transport.cpp",
  });
  std::printf("\n  shared G-DUR engine: %d SLOC, communication layer: %d SLOC\n",
              engine, comm);
  std::printf("\n# Claim check: every protocol plug-in is well under 600 SLOC "
              "(shared engine excluded, as in the paper): %s\n",
              all_small ? "HOLDS" : "VIOLATED");
  return all_small ? 0 : 1;
}
