#!/usr/bin/env bash
# Smoke test of the installed `rppg` entry point: every command end to end,
# then the exit codes of malformed inputs (4: a CSV row, a sidecar line that
# holds two records, a sidecar one record short), of a path that cannot be
# opened, as an input (3) or as an output (2), of diffuse frames dumped over
# the recording they come from (2), of an output that names an input (2: a
# report over the recording, a summary over its manifest, a biophys table
# over its illuminant), of a PPM recording whose middle frame is a
# directory (3, naming the frame) or is cut short (4), of a noise model past
# float64 (2), of the removed bilateral diffuse estimator, by flag or by
# config file (2, naming min_subtract), of the removed passband and SNR
# half-width settings (2: --snr-halfwidth-hz 0.1, a config file with
# passband_hi_hz = 3.5), of --dump-weights - over a landmarks file named -
# (2, the file unchanged: - is stdout only for --out), of a window too long
# to round to frames (7, no traceback), of a scene too big to render (9),
# and of a report whose method holds a comma (4, naming the report, no
# summary written). A frame directory written over a longer one (a diffuse
# dump, a PPM synth) keeps only its own frames.
#
# Usage: bash scripts/smoke_cli.sh OUTDIR
set -eu
smoke="$1"
rppg synth --out "$smoke" --width 24 --height 24 --duration-s 12 --seed 1
for method in aggregate snr proposed; do
  rppg estimate --frames "$smoke/frames.raw" --landmarks "$smoke/landmarks.jsonl" \
    --method "$method" --grid-rows 2 --grid-cols 2 --out "$smoke/$method.json"
done
{
  echo "report,ground_truth,skin_tone,condition,viewpoint"
  for method in aggregate snr proposed; do
    echo "$method.json,hr.csv,medium,room,front"
  done
} > "$smoke/manifest.csv"
rppg evaluate --manifest "$smoke/manifest.csv" --out "$smoke/cohort.csv"
# a method with a comma would split the summary's rows: exit 4, no summary
mkdir -p "$smoke/comma"
printf '{"method": "a,b", "video_bpm": 72.0}\n' > "$smoke/comma/report.json"
cp "$smoke/hr.csv" "$smoke/comma/hr.csv"
printf 'report,ground_truth,skin_tone,condition,viewpoint\nreport.json,hr.csv,medium,room,front\n' \
  > "$smoke/comma/manifest.csv"
rc=0
rppg evaluate --manifest "$smoke/comma/manifest.csv" --out "$smoke/comma/cohort.csv" \
  2> "$smoke/comma/stderr" || rc=$?
test "$rc" -eq 4
grep -q "report.json" "$smoke/comma/stderr"
test ! -e "$smoke/comma/cohort.csv"
rppg estimate --frames "$smoke/frames.raw" --landmarks "$smoke/landmarks.jsonl" \
  --method proposed --grid-rows 2 --grid-cols 2 \
  --out "$smoke/dump.json" --dump-diffuse "$smoke/diffuse"
test -f "$smoke/diffuse/manifest.json"
for method in aggregate snr proposed; do
  rppg estimate --frames "$smoke/frames.raw" --landmarks "$smoke/landmarks.jsonl" \
    --method "$method" --grid-rows 2 --grid-cols 2 --notch-hz 0.5,1.0 \
    --out "$smoke/notch-$method.json" --dump-weights "$smoke/weights-$method.json"
  test -s "$smoke/weights-$method.json"
done
rppg biophys --table melanin --points 3
printf 'wavelength_nm,value\n400,0.5\n700,1.5\n' > "$smoke/illuminant.csv"
rppg biophys --table melanin --points 3 --illuminant "$smoke/illuminant.csv"
printf 'wavelength_nm,value\n400,0.5,9\n700,1.5\n' > "$smoke/bad-illuminant.csv"
rc=0
rppg biophys --table melanin --points 3 --illuminant "$smoke/bad-illuminant.csv" || rc=$?
test "$rc" -eq 4
rppg biophys --table pixel-snr --out "$smoke/pixel-snr.csv"
cp "$smoke/illuminant.csv" "$smoke/illuminant-before.csv"
rc=0
rppg biophys --table melanin --points 3 --illuminant "$smoke/illuminant.csv" \
  --out "$smoke/illuminant.csv" || rc=$?
test "$rc" -eq 2
cmp "$smoke/illuminant.csv" "$smoke/illuminant-before.csv"
# a step that does not divide 300 nm: the grid stops at 694 nm
rppg biophys --table melanin --points 3 --step-nm 7
# a noise model whose full-scale variance overflows float64: exit 2
rc=0
rppg biophys --table pixel-snr --gain 1e-160 || rc=$?
test "$rc" -eq 2
# a sidecar whose line 2 of 3 holds two records: exit 4, naming the line
mkdir -p "$smoke/two-on-a-line"
{
  sed -n 1p "$smoke/landmarks.jsonl"
  printf '%s %s\n' "$(sed -n 2p "$smoke/landmarks.jsonl")" "$(sed -n 3p "$smoke/landmarks.jsonl")"
  sed -n 4p "$smoke/landmarks.jsonl"
} > "$smoke/two-on-a-line/landmarks.jsonl"
rc=0
rppg estimate --frames "$smoke/frames.raw" --landmarks "$smoke/two-on-a-line/landmarks.jsonl" \
  --method aggregate 2> "$smoke/two-on-a-line/stderr" || rc=$?
test "$rc" -eq 4
grep -q "landmarks.jsonl:2" "$smoke/two-on-a-line/stderr"
# a sidecar one record short: exit 4
sed '$d' "$smoke/landmarks.jsonl" > "$smoke/one-short.jsonl"
rc=0
rppg estimate --frames "$smoke/frames.raw" --landmarks "$smoke/one-short.jsonl" --method aggregate || rc=$?
test "$rc" -eq 4
# a path that cannot be opened: an input is exit 3, an output exit 2
rc=0
rppg estimate --frames "$smoke/frames.raw" --landmarks "$smoke" || rc=$?
test "$rc" -eq 3
rc=0
rppg estimate --frames "$smoke/frames.raw" --landmarks "$smoke/landmarks.jsonl" \
  --method aggregate --out "$smoke" || rc=$?
test "$rc" -eq 2
# an output that names an input: exit 2, and the input keeps its bytes
cp "$smoke/frames.raw" "$smoke/frames-before.raw"
rc=0
rppg estimate --frames "$smoke/frames.raw" --landmarks "$smoke/landmarks.jsonl" \
  --method aggregate --out "$smoke/frames.raw" || rc=$?
test "$rc" -eq 2
cmp "$smoke/frames.raw" "$smoke/frames-before.raw"
cp "$smoke/manifest.csv" "$smoke/manifest-before.csv"
rc=0
rppg evaluate --manifest "$smoke/manifest.csv" --out "$smoke/manifest.csv" || rc=$?
test "$rc" -eq 2
cmp "$smoke/manifest.csv" "$smoke/manifest-before.csv"
mkdir -p "$smoke/dump-taken/frame_000000.ppm"
rc=0
rppg estimate --frames "$smoke/frames.raw" --landmarks "$smoke/landmarks.jsonl" \
  --method proposed --dump-diffuse "$smoke/dump-taken" || rc=$?
test "$rc" -eq 2
test ! -e "$smoke/dump-taken/manifest.json"
mkdir -p "$smoke/synth-taken/landmarks.jsonl"
rc=0
rppg synth --out "$smoke/synth-taken" --width 24 --height 24 --duration-s 12 --seed 1 || rc=$?
test "$rc" -eq 2
rppg synth --out "$smoke/ppm" --layout ppm --width 16 --height 16 --duration-s 10 --seed 1
# the 300 frames of a 10 s dump or synth over the 360 of a 12 s one: the
# frames past 300 go, and the manifest counts what is left
rppg estimate --frames "$smoke/ppm/frames" --landmarks "$smoke/ppm/landmarks.jsonl" \
  --method proposed --out "$smoke/dump-over.json" --dump-diffuse "$smoke/diffuse"
test "$(ls "$smoke/diffuse" | wc -l)" -eq 301
test ! -e "$smoke/diffuse/frame_000300.ppm"
rppg synth --out "$smoke/ppm-over" --layout ppm --width 16 --height 16 --duration-s 12 --seed 1
rppg synth --out "$smoke/ppm-over" --layout ppm --width 16 --height 16 --duration-s 10 --seed 1
test "$(ls "$smoke/ppm-over/frames" | wc -l)" -eq 301
cp -R "$smoke/ppm/frames" "$smoke/ppm-before"
rc=0
rppg estimate --frames "$smoke/ppm/frames" --landmarks "$smoke/ppm/landmarks.jsonl" \
  --method proposed --dump-diffuse "$smoke/ppm/frames" || rc=$?
test "$rc" -eq 2
diff -r "$smoke/ppm-before" "$smoke/ppm/frames"
rc=0
rppg estimate --frames "$smoke/ppm/frames" --landmarks "$smoke/ppm/landmarks.jsonl" \
  --out "$smoke/ppm/frames/frame_000005.ppm" || rc=$?
test "$rc" -eq 2
diff -r "$smoke/ppm-before" "$smoke/ppm/frames"
# a middle frame of 300 that is a directory: it is found when its chunk is
# read, exit 3, naming the frame
middle="$smoke/ppm-before/frame_000150.ppm"
mv "$middle" "$smoke/frame_000150.ppm"
mkdir "$middle"
rc=0
rppg estimate --frames "$smoke/ppm-before" --landmarks "$smoke/ppm/landmarks.jsonl" \
  --method aggregate 2> "$smoke/ppm-middle.stderr" || rc=$?
test "$rc" -eq 3
grep -q "frame_000150.ppm: cannot be read" "$smoke/ppm-middle.stderr"
# the same frame cut short: exit 4
rmdir "$middle"
head -c 100 "$smoke/frame_000150.ppm" > "$middle"
rc=0
rppg estimate --frames "$smoke/ppm-before" --landmarks "$smoke/ppm/landmarks.jsonl" \
  --method aggregate 2> "$smoke/ppm-middle.stderr" || rc=$?
test "$rc" -eq 4
grep -q "frame_000150.ppm: PPM payload truncated" "$smoke/ppm-middle.stderr"
# min_subtract is the one diffuse estimator: bilateral exits 2, naming it
rc=0
rppg estimate --frames "$smoke/frames.raw" --landmarks "$smoke/landmarks.jsonl" \
  --diffuse-estimator bilateral 2> "$smoke/bilateral.stderr" || rc=$?
test "$rc" -eq 2
grep -q "min_subtract" "$smoke/bilateral.stderr"
printf '[pipeline]\ndiffuse_estimator = bilateral\n' > "$smoke/bilateral.ini"
rc=0
rppg estimate --frames "$smoke/frames.raw" --landmarks "$smoke/landmarks.jsonl" \
  --config "$smoke/bilateral.ini" 2> "$smoke/bilateral.stderr" || rc=$?
test "$rc" -eq 2
grep -q "min_subtract" "$smoke/bilateral.stderr"
# a window of 1e308 s: no window fits, exit 7 with no traceback
rc=0
rppg estimate --frames "$smoke/frames.raw" --landmarks "$smoke/landmarks.jsonl" \
  --window-s 1e308 2> "$smoke/huge-window.stderr" || rc=$?
test "$rc" -eq 7
grep -q "no analysis windows fit" "$smoke/huge-window.stderr"
if grep -q "Traceback" "$smoke/huge-window.stderr"; then exit 1; fi
# the band and the SNR half-width are constants: their flag or key exits 2
rc=0
rppg estimate --frames "$smoke/frames.raw" --landmarks "$smoke/landmarks.jsonl" \
  --snr-halfwidth-hz 0.1 || rc=$?
test "$rc" -eq 2
printf '[pipeline]\npassband_hi_hz = 3.5\n' > "$smoke/passband.ini"
rc=0
rppg estimate --frames "$smoke/frames.raw" --landmarks "$smoke/landmarks.jsonl" \
  --config "$smoke/passband.ini" || rc=$?
test "$rc" -eq 2
# - is stdout only for --out: --dump-weights - names the landmarks file -
mkdir -p "$smoke/dash"
cp "$smoke/landmarks.jsonl" "$smoke/dash/-"
rc=0
(cd "$smoke/dash" && rppg estimate --frames ../frames.raw --landmarks - --dump-weights -) || rc=$?
test "$rc" -eq 2
cmp "$smoke/dash/-" "$smoke/landmarks.jsonl"
rc=0
rppg synth --out "$smoke/too-big" --duration-s 1e12 || rc=$?
test "$rc" -eq 9
test ! -e "$smoke/too-big"
python -m rppg --help
for command in estimate synth biophys; do
  rppg "$command" --help
done
