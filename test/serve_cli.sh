#!/bin/sh
# Every cbmf_serve one-shot command pointed at a socket nobody listens
# on must print a "connection lost" failure and exit 1, never an
# uncaught exception.  Then a sharded serve whose shard 1 cannot bind
# must exit 1 within seconds, name shard 1, and stop shard 0.
# Usage: serve_cli.sh PATH/TO/cbmf_serve.exe
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

# A directory at <base>.shard-1 makes that shard's bind fail.
base=./serve-cli-shard-fail.sock
log=./serve-cli-shard-fail.log
rm -rf "$base.shard-0" "$base.shard-1"
mkdir "$base.shard-1"
"$exe" serve --socket "$base" --shards 2 >"$log" 2>&1 &
pid=$!
i=0
while kill -0 "$pid" 2>/dev/null && [ "$i" -lt 50 ]; do
  sleep 0.1
  i=$((i + 1))
done
if kill -0 "$pid" 2>/dev/null; then
  echo "serve-cli: sharded serve with a failing shard still running after 5 s"
  kill "$pid"
  status=1
fi
wait "$pid"
code=$?
if [ "$code" -ne 1 ] || ! grep -q "shard 1" "$log"; then
  echo "serve-cli: sharded serve with a failing shard exited $code: $(cat "$log")"
  status=1
fi
out=$("$exe" ping --socket "$base.shard-0" 2>&1)
if ! printf '%s\n' "$out" | grep -q "failed: connection lost"; then
  echo "serve-cli: shard 0 outlived its failed cluster: $out"
  "$exe" shutdown --socket "$base.shard-0" >/dev/null 2>&1
  status=1
fi
rm -rf "$base.shard-0" "$base.shard-1" "$log"
[ "$status" -eq 0 ] && echo "serve-cli: a failed shard start exits 1 and stops the cluster"
exit "$status"
