#!/usr/bin/env bash
# Count code lines: the non-blank lines of every .cpp and .hpp file under
# the given paths whose first non-space characters are not `//`.
#
#   tools/code_lines.sh PATH...
#
# PATH is a directory (searched recursively) or a file. Prints one total.
# This is the count line-count targets and results in ROADMAP.md and
# CHANGES.md quote; block comments and trailing comments count as code.
set -euo pipefail

if [ $# -eq 0 ]; then
  echo "usage: code_lines.sh PATH..." >&2
  exit 2
fi
find "$@" -type f \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
  xargs -0 -r cat |
  awk '!/^[[:space:]]*(\/\/|$)/ { n++ } END { print n + 0 }'
