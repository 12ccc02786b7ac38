#!/bin/sh
# Every cbmf_serve one-shot command pointed at a socket nobody listens
# on must print a "connection lost" failure and exit 1, never an
# uncaught exception.  Usage: serve_cli.sh PATH/TO/cbmf_serve.exe
exe=$1
sock=./serve-cli-nobody-home.sock
status=0
check() {
  out=$("$exe" "$@" --socket "$sock" 2>&1)
  code=$?
  if [ "$code" -ne 1 ] || ! printf '%s\n' "$out" | grep -q "failed: connection lost"; then
    echo "serve-cli: '$*' exited $code: $out"
    status=1
  fi
}
for shards in 1 2; do
  check load m model.snap --shards "$shards"
  check predict m -x 1,2 --shards "$shards"
  check ping --shards "$shards"
  check reload m model.snap --shards "$shards"
  check stats --shards "$shards"
  check shutdown --shards "$shards"
done
[ "$status" -eq 0 ] && echo "serve-cli: every one-shot reported a lost connection with exit 1"
exit "$status"
