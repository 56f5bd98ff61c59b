#!/bin/sh
# Run one command and fail unless it exits 0 with nothing on stderr.
#
#   usage: .github/check-clean.sh COMMAND [ARG]...
#
# The command's stdout passes through; its stderr is held until it ends and
# then written to this script's stderr, so that a redirect of the caller's
# stdout does not hide it.  A non-zero exit or any stderr output, such as a
# warning, makes the script say so and exit 1.
err=$(mktemp)
status=0
"$@" 2> "$err" || status=$?
cat "$err" >&2
if [ "$status" -ne 0 ] || [ -s "$err" ]; then
  echo "failed (exit $status, stderr above): $*" >&2
  rm -f "$err"
  exit 1
fi
rm -f "$err"
