// fedlint: static verification of federated-function specs, of the plan IR
// they compile to and of its lowerings, and semantic dataflow facts over the
// plan.
//
//   fedlint                 lint the full sample scenario, all three passes
//   fedlint --list-corpus   print the corpus entry names
//   fedlint --corpus NAME   lint one corpus entry
//   fedlint --corpus-all    lint every corpus entry
//   fedlint --format=F      text (default), json, or sarif
//   fedlint --strict        exit 1 when the findings are warnings only
//
// Exit codes: 0 clean (or warnings without --strict), 1 warnings under
// --strict, 2 errors, 64 usage.
#include <cstdio>
#include <string>
#include <vector>

#include "fedlint_cli.h"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  fedflow::tools::CliOptions options;
  std::string error;
  if (!fedflow::tools::ParseCliArgs(args, &options, &error)) {
    std::fputs(error.c_str(), stderr);
    return 64;
  }
  std::string output;
  int code = fedflow::tools::RunFedlint(options, &output);
  std::fputs(output.c_str(), stdout);
  return code;
}
