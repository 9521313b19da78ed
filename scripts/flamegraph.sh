#!/usr/bin/env sh
# Render a flame graph from collapsed-stack span output.
#
# Input is the format ShardedRecorder::to_collapsed_stacks() produces
# ("root;child;leaf <self_nanos>" per line), either from a file or
# pulled live from a serving pipeline's /stacks endpoint:
#
#   cargo run --example pipeline_trace -- --collapsed-out trace.folded
#   scripts/flamegraph.sh trace.folded flame.svg
#
#   cargo run --release -p mec-bench --bin experiments -- fig9 --serve 127.0.0.1:9898 &
#   scripts/flamegraph.sh http://127.0.0.1:9898 flame.svg
#
# Uses whichever renderer is on PATH: inferno-flamegraph (cargo
# install inferno) or the classic flamegraph.pl. With neither
# installed, prints the top self-time frames so the data is still
# inspectable offline.
set -eu

in="${1:?usage: flamegraph.sh COLLAPSED_FILE_OR_URL [OUT_SVG]}"
out="${2:-flame.svg}"

# A live endpoint: fetch /stacks into a temp file and proceed as if a
# collapsed file had been passed.
case "$in" in
http://* | https://*)
    url="$in"
    case "$url" in
    */stacks) ;;
    *) url="${url%/}/stacks" ;;
    esac
    tmp="$(mktemp)"
    trap 'rm -f "$tmp"' EXIT
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "$url" >"$tmp"
    elif command -v wget >/dev/null 2>&1; then
        wget -qO "$tmp" "$url"
    else
        echo "error: fetching $url needs curl or wget on PATH" >&2
        exit 1
    fi
    echo "fetched $url"
    in="$tmp"
    ;;
esac

if [ ! -s "$in" ]; then
    echo "error: $in is missing or empty" >&2
    exit 1
fi

if command -v inferno-flamegraph >/dev/null 2>&1; then
    inferno-flamegraph --title "mec pipeline spans (self time, ns)" \
        --countname ns <"$in" >"$out"
    echo "wrote $out (inferno)"
elif command -v flamegraph.pl >/dev/null 2>&1; then
    flamegraph.pl --title "mec pipeline spans (self time, ns)" \
        --countname ns <"$in" >"$out"
    echo "wrote $out (flamegraph.pl)"
else
    echo "no flamegraph renderer on PATH (install inferno or flamegraph.pl);"
    echo "top self-time frames in $in:"
    sort -t' ' -k2 -rn "$in" | head -15 | awk '{printf "  %12d ns  %s\n", $NF, $1}'
fi
