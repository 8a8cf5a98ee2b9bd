#!/usr/bin/env python3
"""Gate on match-kind counters recorded in BENCH_*.json files.

Usage:
    python3 bench/check_match_kinds.py BENCH_*.json

The differential benches record how every send classified
(first_time/content_match/perfect_match/partial_match) via --json. A
regression in the matcher or the bulk update path shows up here long before
it shows up as a timing change:

  * series with "/ContentMatch/" in the name must classify EVERY send as a
    content match — any rewrite means shadow state diverged;
  * series with "/ValueReserialization_" must never see a partial
    structural match or a first-time send — the workload is same-width by
    construction, so a partial match means widths or expansion logic broke;
  * series with "/FaultRecovery" (bench_resilience, differential sends
    under injected write failures) must see no partial matches, and
    first-time sends only for the initial template build plus recovery
    invalidations — anything more means rollback corrupted shadow state
    and the matcher misclassified an MCM/PSM send;
  * "ServerThroughput/..." differential series (bench_server_throughput,
    per-worker template stores on both engines) must never rebuild a warm
    template. On the blocking engine a keep-alive connection pins its
    worker, so after warmup at most one first-time response per distinct
    shape may remain (steady_first_time <= shapes). Reactor dispatch does
    not pin connections, so a worker may first meet a shape after warmup;
    there the exact per-worker invariant holds instead: no template
    evictions, and at most one first-time response per worker per shape
    over the whole run (first_time_total <= workers x shapes). A warm
    template is only rebuilt after an eviction, so this catches rebuilds
    exactly. The reactor's req/s is gated on the idle axis below, not
    here: two series run seconds apart and single-core CI boxes drift too
    much for a cross-series ratio to be meaningful;
  * "ServerIdleConnections/paired/..." points run BOTH engines in
    alternating windows (drift-immune ratio) under an idle keep-alive
    fleet: at 0 idle connections the reactor must hold >= 0.95x the
    blocking engine's req/s, and at >= 1000 idle connections it must be
    strictly faster (the blocking pool starves there by construction);
  * "DiffWire/..." series (bench_diffwire) are gated across series: at
    1 per-mille dirty values the patch series' measured on-wire bytes per
    request must be <= 0.1x the full-send series' (the diff-wire protocol's
    reason to exist), every DiffWire entry must report failed == 0 —
    including the NACK-storm series, whose whole point is that replica
    loss degrades to full sends instead of failed requests — and the
    nackstorm series must actually have seen NACKs (else the storm never
    exercised the fallback); every patch and nackstorm entry must show
    steady patches never hashing a whole body: server full_hashes <=
    pins + repins, and the live client template's client_hashed_bytes
    (its buffer's own count since it was built) <= body_bytes; the shift
    series (every dirty value changes width) must send >= 95% of its
    requests as patch frames with zero server demotions, full_hashes <=
    pins + repins, and on each side hash from scratch no more than
    runs x 2 x piece_bytes + frame bytes over its measured window (a
    splice costs the piece it lands in, not the body; the server may add
    one body per whole-replica hash in the window);
  * "DiffDeser/..." series (bench_diffdeser) are gated across series: at
    <= 1% dirty the fused fast-parse receive stage must be >= 5x faster
    than the always-full-parse baseline (both engines), clean fast-parse
    series must see zero demotions, the replay series must be pure content
    hits, and every DiffDeser entry must report failed == 0;
  * "WireCompress/..." series (bench_compress) are gated across series at
    every dirty rate: the preset full re-offer series must measure <= 0.5x
    the identity full series' on-wire bytes per request (the >= 2x
    reduction the template-preset DEFLATE layer exists for) and code
    every re-offer; a preset-configured client's patch frames go uncoded
    (zero compressed sends, payload bytes equal to the identity patch
    series'); and every WireCompress entry must report failed == 0.

Exits non-zero listing every violated series.
"""
import json
import sys


def check_entry(bench, entry):
    series = entry["series"]
    c = entry.get("counters", {})
    first = c.get("first_time", 0)
    content = c.get("content_match", 0)
    perfect = c.get("perfect_match", 0)
    partial = c.get("partial_match", 0)
    errors = []
    if "/ContentMatch/" in series:
        if first or perfect or partial or not content:
            errors.append(
                f"{bench} {series}/{entry['n']}: expected pure content "
                f"matches, got first={first} content={content} "
                f"perfect={perfect} partial={partial}")
    if "/ValueReserialization_" in series:
        if first or partial:
            errors.append(
                f"{bench} {series}/{entry['n']}: same-width rewrites must "
                f"stay structural, got first={first} partial={partial}")
    if "/FaultRecovery" in series:
        invalidated = c.get("invalidated", 0)
        if partial or first > 1 + invalidated:
            errors.append(
                f"{bench} {series}/{entry['n']}: recovery must preserve "
                f"differential matching, got first={first} "
                f"partial={partial} invalidated={invalidated}")
    return errors


def check_server_throughput(bench, entries):
    """Cross-series gates for bench_server_throughput (see module doc)."""
    points = {}  # (mode, workers) -> counters
    for entry in entries:
        series = entry["series"]
        if not series.startswith("ServerThroughput/"):
            continue
        mode = series.split("/")[1]
        points[(mode, entry["n"])] = entry.get("counters", {})

    errors = []
    for (mode, workers), c in points.items():
        if not c.get("diff", 0):
            continue
        name = f"{bench} ServerThroughput/{mode}/workers/{workers}"
        shapes = c.get("shapes", 0)
        if c.get("reactor", 0):
            evictions = c.get("template_evictions", 0)
            total = c.get("first_time_total", 0)
            if evictions:
                errors.append(
                    f"{name}: {evictions:.0f} template eviction(s) — the "
                    f"per-worker stores no longer hold every shape")
            if total > workers * shapes:
                errors.append(
                    f"{name}: first_time={total:.0f} over the run exceeds "
                    f"workers x shapes ({workers * shapes:.0f}) — warm "
                    f"templates are being rebuilt")
        else:
            steady = c.get("steady_first_time", 0)
            if steady > shapes:
                errors.append(
                    f"{name}: steady-state first_time={steady:.0f} exceeds "
                    f"distinct shapes ({shapes:.0f}) — warm templates are "
                    f"being rebuilt")

    # The reactor series' req/s is gated on the drift-immune
    # ServerIdleConnections axis (check_idle_connections), not across
    # ServerThroughput series.
    return errors


def check_idle_connections(bench, entries):
    """Cross-engine gates for the paired ServerIdleConnections axis."""
    errors = []
    for entry in entries:
        if not entry["series"].startswith("ServerIdleConnections/"):
            continue
        idle = entry["n"]
        c = entry.get("counters", {})
        reactor = c.get("req_per_s_reactor", 0)
        blocking = c.get("req_per_s_blocking", 0)
        if idle == 0:
            if blocking > 0 and reactor < 0.95 * blocking:
                errors.append(
                    f"{bench} ServerIdleConnections idle={idle}: reactor "
                    f"{reactor:.0f} req/s < 0.95x blocking ({blocking:.0f})")
        elif idle >= 1000:
            if reactor <= blocking:
                errors.append(
                    f"{bench} ServerIdleConnections idle={idle}: reactor "
                    f"{reactor:.0f} req/s not strictly above blocking "
                    f"({blocking:.0f}) — idle fleet no longer starves the "
                    f"pool alone")
    return errors


def check_root_counts(bench, name, c):
    """Steady patches never hash a whole body (counts, not timing).

    The server hashes a replica from scratch at most once per pin
    generation, and the live client template hashes each of its bytes from
    scratch at most once (the series keep every value's width, so nothing
    goes stale after the first root); every other patch moves the
    integrity roots by the dirty bytes alone.
    """
    needed = ("full_hashes", "pins", "repins", "client_hashed_bytes",
              "body_bytes")
    missing = [k for k in needed if k not in c]
    if missing:
        return [f"{bench} {name}: integrity-root counters missing: "
                f"{', '.join(missing)}"]
    errors = []
    if c["full_hashes"] > c["pins"] + c["repins"]:
        errors.append(
            f"{bench} {name}: server hashed {c['full_hashes']:.0f} whole "
            f"replicas > pins + repins ({c['pins'] + c['repins']:.0f})")
    if c["client_hashed_bytes"] > c["body_bytes"]:
        errors.append(
            f"{bench} {name}: client template hashed "
            f"{c['client_hashed_bytes']:.0f} bytes > one body "
            f"({c['body_bytes']:.0f})")
    return errors


def check_shift(bench, name, c):
    """Partial structural matches travel as splice patches.

    Every dirty value of the DiffWire/shift series takes a new width each
    request, and the template is never dropped, so (in the measured window)
    at least 95% of requests must go out as patch frames, the server must
    fast-parse every one of them (zero demotions) and hash a whole replica
    at most once per pin, and each side may hash from scratch only the
    pieces its splices land in: at most runs x 2 x piece_bytes plus the
    frames' bytes over the window (plus, on the server, one body per
    whole-replica hash inside the window).
    """
    needed = ("requests", "window_patch_sends", "demotions", "full_hashes",
              "pins", "repins", "piece_bytes", "window_runs",
              "window_frame_bytes", "window_client_hashed",
              "window_server_hashed", "window_full_hashes", "body_bytes")
    missing = [k for k in needed if k not in c]
    if missing:
        return [f"{bench} {name}: shift counters missing: "
                f"{', '.join(missing)}"]
    errors = []
    share = c["window_patch_sends"] / c["requests"] if c["requests"] else 0
    if share < 0.95:
        errors.append(
            f"{bench} {name}: patch share {share:.3f} < 0.95 — shifted "
            f"updates are falling back to full re-offers")
    if c["demotions"]:
        errors.append(
            f"{bench} {name}: {c['demotions']:.0f} demotion(s) — the "
            f"server could not fast-parse a splice patch")
    if c["full_hashes"] > c["pins"] + c["repins"]:
        errors.append(
            f"{bench} {name}: server hashed {c['full_hashes']:.0f} whole "
            f"replicas > pins + repins ({c['pins'] + c['repins']:.0f})")
    bound = (c["window_runs"] * 2 * c["piece_bytes"] +
             c["window_frame_bytes"])
    if c["window_client_hashed"] > bound:
        errors.append(
            f"{bench} {name}: client hashed {c['window_client_hashed']:.0f} "
            f"bytes > runs x 2 x piece + frame bytes ({bound:.0f})")
    server_bound = bound + c["window_full_hashes"] * c["body_bytes"]
    if c["window_server_hashed"] > server_bound:
        errors.append(
            f"{bench} {name}: server hashed {c['window_server_hashed']:.0f} "
            f"bytes > runs x 2 x piece + frame bytes ({server_bound:.0f})")
    return errors


def check_diffwire(bench, entries):
    """Cross-series gates for bench_diffwire (see module doc)."""
    points = {}  # (mode, permille) -> counters
    errors = []
    for entry in entries:
        series = entry["series"]
        if not series.startswith("DiffWire/"):
            continue
        mode = series.split("/")[1]
        c = entry.get("counters", {})
        points[(mode, entry["n"])] = c
        if c.get("failed", 0):
            errors.append(
                f"{bench} {series}/{entry['n']}: {c['failed']:.0f} failed "
                f"request(s) — diff-wire may never fail an invoke")
        if mode == "nackstorm" and not c.get("patch_nacks", 0):
            errors.append(
                f"{bench} {series}/{entry['n']}: NACK storm saw zero NACKs "
                f"— the fallback path went unexercised")
        if mode in ("patch", "nackstorm"):
            errors.extend(check_root_counts(bench, f"{series}/{entry['n']}", c))
        if mode == "shift":
            errors.extend(check_shift(bench, f"{series}/{entry['n']}", c))

    if ("patch", 1) in points and ("full", 1) in points:
        patch = points[("patch", 1)].get("wire_bytes_per_req", 0)
        full = points[("full", 1)].get("wire_bytes_per_req", 0)
        if full > 0 and patch > 0.1 * full:
            errors.append(
                f"{bench} DiffWire at 1 per-mille dirty: patch sends cost "
                f"{patch:.0f} wire bytes/req > 0.1x full sends "
                f"({full:.0f})")
    return errors


def check_diffdeser(bench, entries):
    """Cross-series gates for bench_diffdeser.

    * every DiffDeser entry must report failed == 0;
    * at <= 1% dirty (permille 1 and 10) the fast-parse series' receive
      parse stage must be >= 5x faster than the full-parse baseline at the
      same dirty rate, on both engines — the tentpole ratio differential
      deserialization exists for;
    * clean fast-parse series must report zero demotions (same-width
      rewrites never touch structural bytes, so any demotion means the
      region map or the run intersection broke);
    * the replay series must serve from the cache alone: content hits > 0,
      zero fast parses, and exactly the warmup's one full parse;
    * replay_large (10,000 values) must apply its frames in <= 2x the
      patch-apply time of replay (the capped payload, 10-20x smaller): a
      replica apply costs the frame's runs, not the body.
    """
    points = {}  # (mode, permille) -> counters
    errors = []
    for entry in entries:
        series = entry["series"]
        if not series.startswith("DiffDeser/"):
            continue
        mode = series.split("/")[1]
        c = entry.get("counters", {})
        points[(mode, entry["n"])] = c
        if c.get("failed", 0):
            errors.append(
                f"{bench} {series}/{entry['n']}: {c['failed']:.0f} failed "
                f"request(s) — differential deserialization may never fail "
                f"an invoke")
        if mode.endswith("fastparse") and c.get("demotions", 0):
            errors.append(
                f"{bench} {series}/{entry['n']}: {c['demotions']:.0f} "
                f"demotion(s) on a clean same-width series — the leaf "
                f"region map or run intersection regressed")

    for fast_mode, full_mode in (("fastparse", "fullparse"),
                                 ("reactor_fastparse", "reactor_fullparse")):
        for permille in (1, 10):
            if ((fast_mode, permille) not in points
                    or (full_mode, permille) not in points):
                continue
            fast = points[(fast_mode, permille)].get("parse_ns_per_req", 0)
            full = points[(full_mode, permille)].get("parse_ns_per_req", 0)
            if full > 0 and fast * 5 > full:
                errors.append(
                    f"{bench} DiffDeser at {permille} per-mille dirty "
                    f"({fast_mode}): fast parse {fast:.0f} ns/req is not "
                    f">= 5x faster than full parse ({full:.0f} ns/req)")

    for (mode, permille), c in points.items():
        if mode not in ("replay", "replay_large"):
            continue
        if (not c.get("content_hits", 0) or c.get("fast_parses", 0)
                or c.get("full_parses", 0) != 1 or c.get("demotions", 0)):
            errors.append(
                f"{bench} DiffDeser/replay/{permille}: replays must be pure "
                f"content hits, got content_hits="
                f"{c.get('content_hits', 0):.0f} "
                f"fast={c.get('fast_parses', 0):.0f} "
                f"full={c.get('full_parses', 0):.0f} "
                f"demotions={c.get('demotions', 0):.0f}")

    if ("replay", 0) in points and ("replay_large", 0) in points:
        small = points[("replay", 0)].get("patch_apply_ns_per_req", 0)
        large = points[("replay_large", 0)].get("patch_apply_ns_per_req", 0)
        if small > 0 and large > 2 * small:
            errors.append(
                f"{bench} DiffDeser/replay_large/0: patch apply "
                f"{large:.0f} ns/req is more than 2x replay/0's "
                f"{small:.0f} ns/req — the apply scales with the body")
    return errors


def check_wire_compress(bench, entries):
    """Cross-series gates for bench_compress (see module doc)."""
    points = {}  # (mode, permille) -> counters
    errors = []
    for entry in entries:
        series = entry["series"]
        if not series.startswith("WireCompress/"):
            continue
        mode = series.split("/")[1]
        c = entry.get("counters", {})
        points[(mode, entry["n"])] = c
        if c.get("failed", 0):
            errors.append(
                f"{bench} {series}/{entry['n']}: {c['failed']:.0f} failed "
                f"request(s) — wire compression may never fail an invoke")

    for (mode, permille), c in points.items():
        if mode != "fullpreset" or ("fullid", permille) not in points:
            continue
        preset = c.get("wire_bytes_per_req", 0)
        identity = points[("fullid", permille)].get("wire_bytes_per_req", 0)
        if identity > 0 and preset > 0.5 * identity:
            errors.append(
                f"{bench} WireCompress at {permille} per-mille dirty: preset "
                f"full re-offers cost {preset:.0f} wire bytes/req > 0.5x "
                f"identity full sends ({identity:.0f}) — the template-preset "
                f"window no longer pays for itself")

        if mode == "fullpreset" and c.get("compressed_sends", 0) < c.get(
                "requests", 1):
            errors.append(
                f"{bench} WireCompress/fullpreset/{permille}: "
                f"{c.get('compressed_sends', 0):.0f} of "
                f"{c.get('requests', 0):.0f} re-offers went out coded — "
                f"every re-offer must be preset-coded")

    for (mode, permille), c in points.items():
        if mode != "patchpreset" or ("patchid", permille) not in points:
            continue
        if c.get("compressed_sends", 0):
            errors.append(
                f"{bench} WireCompress/patchpreset/{permille}: "
                f"{c['compressed_sends']:.0f} coded send(s) — patch frames "
                f"must go uncoded")
        preset = c.get("payload_bytes_per_req", 0)
        identity = points[("patchid", permille)].get(
            "payload_bytes_per_req", 0)
        if preset != identity:
            errors.append(
                f"{bench} WireCompress at {permille} per-mille dirty: a "
                f"preset client's patch payloads cost {preset:.0f} bytes/req "
                f"!= identity patches ({identity:.0f}) — the frames differ")
    return errors


def check_textconv(bench, entries):
    """Gates for the textconv conversion-speed and zero-copy write series.

    * "Textconv/WriteDoubleVsToChars/..." records the median per-pair
      write_double_ns / to_chars_ns ratio over interleaved rounds on the
      same 17-char doubles. It must stay <= 1.4 at n >= 10000 (measured
      ~1.2 for the SWAR path; the deleted scalar path read ~1.57, so a fall
      back to scalar-speed conversion trips it). Smaller n are
      informational: fixed costs dominate there.
    * "Textconv/ReactorZeroCopy/..." resends through the reactor engine
      with a synchronously-draining client: write_copied_bytes must be
      exactly 0 at every size — any copied byte means a response left via
      the flatten/EAGAIN path instead of the direct slice write.
    """
    errors = []
    for entry in entries:
        series = entry["series"]
        c = entry.get("counters", {})
        if (series.startswith("Textconv/WriteDoubleVsToChars/")
                and entry["n"] >= 10000):
            ratio = c.get("to_chars_ratio", float("inf"))
            if ratio > 1.4:
                errors.append(
                    f"{bench} {series}/{entry['n']}: write_double takes "
                    f"{ratio:.2f}x std::to_chars's time > 1.4x — the SWAR "
                    f"conversion kernels regressed")
        if series.startswith("Textconv/ReactorZeroCopy/"):
            copied = c.get("write_copied_bytes", -1)
            if copied != 0:
                errors.append(
                    f"{bench} {series}/{entry['n']}: write_copied_bytes="
                    f"{copied:.0f} — reactor responses must leave via the "
                    f"zero-copy slice path when the client drains promptly")
    return errors


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    errors = []
    checked = 0
    for path in sys.argv[1:]:
        with open(path) as f:
            doc = json.load(f)
        for entry in doc.get("entries", []):
            if entry.get("counters"):
                checked += 1
            errors.extend(check_entry(doc.get("bench", path), entry))
        errors.extend(
            check_server_throughput(doc.get("bench", path),
                                    doc.get("entries", [])))
        errors.extend(
            check_idle_connections(doc.get("bench", path),
                                   doc.get("entries", [])))
        errors.extend(
            check_diffwire(doc.get("bench", path), doc.get("entries", [])))
        errors.extend(
            check_diffdeser(doc.get("bench", path), doc.get("entries", [])))
        errors.extend(
            check_wire_compress(doc.get("bench", path),
                                doc.get("entries", [])))
        errors.extend(
            check_textconv(doc.get("bench", path), doc.get("entries", [])))
    if errors:
        print(f"match-kind check FAILED ({len(errors)} violation(s)):")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"match-kind check passed ({checked} counter-bearing entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
