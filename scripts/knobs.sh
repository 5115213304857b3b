#!/usr/bin/env bash
# Knob audit: the flags `morphd -h` and `morphcli -h` print must be
# exactly the rows of the knob tables in DESIGN.md §13, so a new flag
# cannot land without a documented default and caller. CI runs this; it
# also works locally:
#
#   ./scripts/knobs.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-$(mktemp -d)}"
mkdir -p "$BIN"
go build -o "$BIN/morphd" ./cmd/morphd
go build -o "$BIN/morphcli" ./cmd/morphcli

status=0
for cmd in morphd morphcli; do
  printed=$("$BIN/$cmd" -h 2>&1 | grep -oE '^  -[a-z][a-z-]*' | sed 's/^  //' | sort)
  documented=$(grep -oE "^\| \`$cmd -[a-z][a-z-]*\`" DESIGN.md | sed "s/^| \`$cmd //; s/\`\$//" | sort)
  if [ "$printed" != "$documented" ]; then
    echo "$cmd: flags differ from the DESIGN.md §13 knob table (< printed by -h, > documented):" >&2
    diff <(echo "$printed") <(echo "$documented") >&2 || true
    status=1
  fi
done
[ $status -eq 0 ] && echo "PASS: every flag is in the knob table"
exit $status
