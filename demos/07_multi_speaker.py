#!/usr/bin/env python3
"""Two reverberant speakers: forward prediction once per speaker against
delayed WPE with one filter for both speakers or one filter per speaker.

Each speaker sits in its own room response, so one shared filter has to
compromise; filtering each estimate separately does not. Every variant is a
call of ``fcp`` or ``wpe_supplied``: the multi-speaker ones differ only in
which estimates weight the regression and how often it runs.
"""

import numpy as np

from dereverb import (RirSpec, StftConfig, analyze, fcp, gen_rir,
                      lambda_weights, render_scene, si_sdr, synth_speech,
                      synthesize, target_estimates, wpe_supplied)

fs = 8000
cfg = StftConfig.for_rate(fs)
rows = {"unprocessed": [], "wpe one filter": [], "wpe per speaker": [],
        "fcp per speaker": []}

for seed in range(5):
    dry = [synth_speech(3 * fs, fs, seed=300 + seed),
           synth_speech(3 * fs, fs, seed=400 + seed)]
    rirs = [gen_rir(RirSpec(fs, t60=0.45, direct_delay=24, seed=500 + seed)),
            gen_rir(RirSpec(fs, t60=0.30, direct_delay=40, seed=600 + seed))]
    scene = render_scene(dry, rirs, normalize=True)
    mix = analyze(scene.y, cfg)
    ests = target_estimates(scene.direct, cfg)

    # one filter weighted by the summed power of both estimates
    shared, _ = wpe_supplied(mix.data, lambda_weights(ests, "est_power", 0.001))
    for c, est in enumerate(ests):
        per_speaker, _ = wpe_supplied(mix.data, lambda_weights(est, "est_power", 0.001))
        forward, _, _ = fcp(mix.data, est)
        ref = scene.direct[c]
        rows["unprocessed"].append(si_sdr(scene.y, ref))
        for label, out in (("wpe one filter", shared),
                           ("wpe per speaker", per_speaker),
                           ("fcp per speaker", forward)):
            rows[label].append(
                si_sdr(synthesize(mix.with_data(out), scene.n_samples), ref))

print("mean SI-SDR vs each speaker's direct path (5 scenes x 2 speakers):")
for label, vals in rows.items():
    print(f"  {label:18s} {np.mean(vals):6.2f} dB")
print("\nThe WPE variants dereverberate 'the mixture', stacked once for all")
print("speakers; the forward filters dereverberate each speaker.")
