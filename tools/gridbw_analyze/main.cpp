// gridbw_analyze CLI: see usage_text() in cli.cpp. Exit codes: 0 clean,
// 1 findings or stale GRIDBW-ALLOWs, 2 usage/IO error.

#include "analyze.hpp"

#include <iostream>
#include <string>
#include <vector>

int main(int argc, char** argv) {
  return gridbw::analyze::run_cli({argv + 1, argv + argc}, std::cout, std::cerr);
}
