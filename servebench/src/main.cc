// servebench: the SMOQE serving benchmark's phases, one per invocation.
//
//   servebench gen WORKLOAD SEED SECONDS DIR   write the seeded inputs
//   servebench serve DIR                        end-to-end run, tracing off
//   servebench trace DIR                        traced per-layer replay
//   servebench check DIR                        oracle check of every answer
//
// run.py drives the phases and prints the result line; see README.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "inputs.h"

namespace servebench {
int Serve(const std::string& dir);
int Trace(const std::string& dir);
int Check(const std::string& dir);
}  // namespace servebench

int main(int argc, char** argv) {
  const std::string phase = argc > 1 ? argv[1] : "";
  if (phase == "gen" && argc == 6) {
    servebench::Generate(servebench::WorkloadNamed(argv[2]),
                         std::strtoull(argv[3], nullptr, 10),
                         std::strtod(argv[4], nullptr), argv[5]);
    return 0;
  }
  if (argc == 3 && phase == "serve") return servebench::Serve(argv[2]);
  if (argc == 3 && phase == "trace") return servebench::Trace(argv[2]);
  if (argc == 3 && phase == "check") return servebench::Check(argv[2]);
  std::fprintf(stderr,
               "usage: servebench gen WORKLOAD SEED SECONDS DIR | "
               "serve DIR | trace DIR | check DIR\n");
  return 2;
}
