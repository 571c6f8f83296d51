#!/usr/bin/env bash
# End-to-end durable-store smoke. Phase 1 (single node): simulate, restart
# pacd over the same store directory, and require the repeat request to be
# a disk hit with zero new simulation runs; restart again with warm-up on
# and require a memo hit straight from boot. Phase 2 (3-node fleet): kill
# a key's owning node, let a survivor simulate + store the key, bring the
# owner back with an EMPTY store, and require it to answer from the
# survivor's store over peer exchange (X-Pac-Cache: peer).
#
# Usage: scripts/smoke_store.sh [pacd-port [gw-port b0-port b1-port b2-port]]
set -euo pipefail

cd "$(dirname "$0")/.."

P0="${1:-${PACD_PORT:-18095}}"
GW_PORT="${2:-18096}"
B0_PORT="${3:-18097}"
B1_PORT="${4:-18098}"
B2_PORT="${5:-18099}"
D="http://127.0.0.1:$P0"
GW="http://127.0.0.1:$GW_PORT"

BINDIR="$(mktemp -d)"
STOREDIR="$(mktemp -d)"
FLEETDIR="$(mktemp -d)"
LOGDIR="$(mktemp -d)"
PIDS=()

cleanup() {
  for pid in "${PIDS[@]:-}"; do
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
      kill -9 "$pid" 2>/dev/null || true
      wait "$pid" 2>/dev/null || true
    fi
  done
  rm -rf "$BINDIR" "$STOREDIR" "$FLEETDIR" "$LOGDIR"
}
trap cleanup EXIT

fail() {
  echo "smoke-store: FAIL: $*" >&2
  for log in "$LOGDIR"/*.log; do
    echo "--- $log ---" >&2
    cat "$log" >&2
  done
  exit 1
}

go build -o "$BINDIR/pacd" ./cmd/pacd
go build -o "$BINDIR/pacgw" ./cmd/pacgw

wait_up() { # wait_up URL PID NAME
  local up=""
  for _ in $(seq 1 100); do
    if curl -fsS "$1/healthz" >/dev/null 2>&1; then up=1; break; fi
    kill -0 "$2" 2>/dev/null || fail "$3 exited during startup"
    sleep 0.1
  done
  [ -n "$up" ] || fail "$3 did not answer /healthz"
}

metric() { # metric BASE_URL NAME -> summed value (0 when absent)
  curl -fsS "$1/metrics" | awk -v m="$2" '$1 ~ ("^" m "($|{)") {sum += $2; found=1} END {print (found ? sum : 0)}'
}

# simulate BASE_URL BODY HDR_FILE -> response body (synchronous)
simulate() {
  curl -fsS -D "$3" -X POST -H 'Content-Type: application/json' -d "$2" "$1/v1/simulate?wait=60s"
}

cache_header() { awk 'tolower($1) == "x-pac-cache:" {print $2}' "$1" | tr -d '\r'; }

body='{"benchmark": "GS", "mode": "pac"}'

# ---------------------------------------------------------------------
# Phase 1: single-node durability across restarts.

"$BINDIR/pacd" -addr "127.0.0.1:$P0" -quick -store "$STOREDIR" -store-warm 0 \
  >"$LOGDIR/pacd1.log" 2>&1 &
D_PID=$!
PIDS+=("$D_PID")
wait_up "$D" "$D_PID" "pacd (boot 1)"

hdr="$(mktemp)"
first=$(simulate "$D" "$body" "$hdr")
echo "$first" | grep -q '"status": "done"' || fail "first simulate did not finish: $first"
[ "$(cache_header "$hdr")" = "miss" ] || fail "first simulate cache source '$(cache_header "$hdr")', want miss"
rm -f "$hdr"
writes=$(metric "$D" pac_store_writes_total)
[ "$writes" != "0" ] || fail "completed result not written through to the store"
echo "smoke-store: fresh simulate + write-through ok"

kill -TERM "$D_PID"
status=0; wait "$D_PID" || status=$?
[ "$status" = "0" ] || fail "pacd exited $status on SIGTERM"
grep -q "drained cleanly" "$LOGDIR/pacd1.log" || fail "boot-1 drain not clean"
[ -s "$STOREDIR/index.journal" ] || fail "no index journal after clean shutdown"

# Boot 2: warm-up disabled, so the repeat request must hit the DISK path.
"$BINDIR/pacd" -addr "127.0.0.1:$P0" -quick -store "$STOREDIR" -store-warm 0 \
  >"$LOGDIR/pacd2.log" 2>&1 &
D_PID=$!
PIDS+=("$D_PID")
wait_up "$D" "$D_PID" "pacd (boot 2)"

hdr="$(mktemp)"
second=$(simulate "$D" "$body" "$hdr")
echo "$second" | grep -q '"status": "done"' || fail "post-restart simulate did not finish: $second"
[ "$(cache_header "$hdr")" = "disk" ] || fail "post-restart cache source '$(cache_header "$hdr")', want disk"
rm -f "$hdr"
hits=$(metric "$D" pac_store_hits_total)
[ "$hits" != "0" ] || fail "pac_store_hits_total did not move on the disk hit"
sims=$(metric "$D" pac_sims_started_total)
[ "$sims" = "0" ] || fail "disk-hit boot ran $sims simulations, want 0"
echo "smoke-store: restart + disk hit ok (hits=$hits, sims=0)"

kill -TERM "$D_PID"
wait "$D_PID" || fail "pacd boot 2 did not drain cleanly"

# Boot 3: warm-up on — the session memo is seeded from the index, so the
# very first request is a memo hit.
"$BINDIR/pacd" -addr "127.0.0.1:$P0" -quick -store "$STOREDIR" -store-warm 256 \
  >"$LOGDIR/pacd3.log" 2>&1 &
D_PID=$!
PIDS+=("$D_PID")
wait_up "$D" "$D_PID" "pacd (boot 3)"

warmed=$(metric "$D" pac_store_warmed_total)
[ "$warmed" != "0" ] || fail "warm boot seeded 0 entries"
warm_s=$(metric "$D" pac_store_warm_seconds)
hdr="$(mktemp)"
third=$(simulate "$D" "$body" "$hdr")
echo "$third" | grep -q '"status": "done"' || fail "warm-boot simulate did not finish: $third"
[ "$(cache_header "$hdr")" = "memo" ] || fail "warm-boot cache source '$(cache_header "$hdr")', want memo"
rm -f "$hdr"
[ "$(metric "$D" pac_sims_started_total)" = "0" ] || fail "warm boot still ran a simulation"
echo "smoke-store: warm boot ok (warmed=$warmed in ${warm_s}s, memo hit)"

kill -TERM "$D_PID"
wait "$D_PID" || fail "pacd boot 3 did not drain cleanly"

# ---------------------------------------------------------------------
# Phase 2: 3-node fleet, cold node answers from a peer's store.

B=(b0 b1 b2)
PORTS=("$B0_PORT" "$B1_PORT" "$B2_PORT")
declare -A B_PID
start_backend() { # start_backend INDEX STORE_SUFFIX
  local i="$1" dir="$FLEETDIR/${B[$1]}$2"
  mkdir -p "$dir"
  "$BINDIR/pacd" -addr "127.0.0.1:${PORTS[$i]}" -quick -node "${B[$i]}" \
    -store "$dir" -store-warm 0 >>"$LOGDIR/${B[$i]}.log" 2>&1 &
  B_PID[$i]=$!
  PIDS+=("${B_PID[$i]}")
  wait_up "http://127.0.0.1:${PORTS[$i]}" "${B_PID[$i]}" "pacd ${B[$i]}"
}
for i in 0 1 2; do start_backend "$i" ""; done

BACKENDS="http://127.0.0.1:$B0_PORT,http://127.0.0.1:$B1_PORT,http://127.0.0.1:$B2_PORT"
"$BINDIR/pacgw" -addr "127.0.0.1:$GW_PORT" -backends "$BACKENDS" -quick \
  -health-interval 200ms -fail-after 2 -recover-after 2 >"$LOGDIR/pacgw.log" 2>&1 &
GW_PID=$!
PIDS+=("$GW_PID")
wait_up "$GW" "$GW_PID" "pacgw"
curl -fsS "$GW/healthz" | grep -q '"backendsUp": 3' || fail "gateway does not see 3 backends"
echo "smoke-store: fleet of 3 + gateway up"

# Route one key, note its owner.
fleet_body='{"benchmark": "STREAM", "mode": "pac"}'
hdr="$(mktemp)"
resp=$(simulate "$GW" "$fleet_body" "$hdr")
echo "$resp" | grep -q '"status": "done"' || fail "fleet simulate did not finish: $resp"
owner=$(awk 'tolower($1) == "x-pac-backend:" {print $2}' "$hdr" | tr -d '\r')
[ "$(cache_header "$hdr")" = "miss" ] || fail "fleet first simulate not a miss"
rm -f "$hdr"
owner_i=""
for i in 0 1 2; do
  [ "$owner" = "http://127.0.0.1:${PORTS[$i]}" ] && owner_i=$i
done
[ -n "$owner_i" ] || fail "unrecognised owner '$owner'"
echo "smoke-store: key owned by ${B[$owner_i]}"

# Kill the owner; a survivor simulates the key and stores it durably.
kill -9 "${B_PID[$owner_i]}"
wait "${B_PID[$owner_i]}" 2>/dev/null || true
for _ in $(seq 1 100); do
  [ "$(metric "$GW" pac_gw_ejections_total)" != "0" ] && break
  sleep 0.1
done
[ "$(metric "$GW" pac_gw_ejections_total)" != "0" ] || fail "owner kill never ejected"
hdr="$(mktemp)"
resp=$(simulate "$GW" "$fleet_body" "$hdr")
echo "$resp" | grep -q '"status": "done"' || fail "failover simulate did not finish: $resp"
survivor=$(awk 'tolower($1) == "x-pac-backend:" {print $2}' "$hdr" | tr -d '\r')
[ "$survivor" != "$owner" ] || fail "dead owner still serving"
rm -f "$hdr"
echo "smoke-store: failover node $survivor simulated + stored the key"

# Owner returns COLD: same node name and port, empty store. After the
# gateway reinstates it, the key routes home; the cold node misses memo
# and disk and must answer from the survivor's store via peer exchange.
start_backend "$owner_i" "-cold"
for _ in $(seq 1 150); do
  curl -fsS "$GW/healthz" | grep -q '"backendsUp": 3' && break
  sleep 0.1
done
curl -fsS "$GW/healthz" | grep -q '"backendsUp": 3' || fail "revived owner never reinstated"

hdr="$(mktemp)"
resp=$(simulate "$GW" "$fleet_body" "$hdr")
echo "$resp" | grep -q '"status": "done"' || fail "cold-owner simulate did not finish: $resp"
served=$(awk 'tolower($1) == "x-pac-backend:" {print $2}' "$hdr" | tr -d '\r')
[ "$served" = "$owner" ] || fail "key did not route home after recovery (served by $served)"
src=$(cache_header "$hdr")
[ "$src" = "peer" ] || fail "cold owner cache source '$src', want peer"
rm -f "$hdr"
peer_hits=$(metric "$owner" pac_store_peer_hits_total)
[ "$peer_hits" != "0" ] || fail "pac_store_peer_hits_total did not move on the cold owner"
[ "$(metric "$owner" pac_sims_started_total)" = "0" ] || fail "cold owner re-simulated instead of peer-fetching"
echo "smoke-store: cold node answered from peer store ok (peer_hits=$peer_hits)"

echo "smoke-store: PASS"
