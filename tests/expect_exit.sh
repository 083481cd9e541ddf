#!/bin/sh
# Usage: expect_exit.sh <status> <stderr-line> <command> [args...]
# Passes when <command> exits with <status> and prints <stderr-line> as one
# whole line on stderr.
want_status=$1
want_line=$2
shift 2
err=$("$@" 2>&1 >/dev/null)
status=$?
if [ "$status" -eq "$want_status" ] &&
   printf '%s\n' "$err" | grep -qxF -- "$want_line"; then
  exit 0
fi
echo "expected exit $want_status with '$want_line'; got exit $status:" >&2
printf '%s\n' "$err" >&2
exit 1
