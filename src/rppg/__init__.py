"""Remote photoplethysmography toolkit.

Estimates heart rate from facial video by combining per-region color
traces into a single pulse waveform. Three combination strategies are
provided: a whole-face mean, a per-cell SNR-weighted mean of chrominance
waveforms, and an RGB-space combination whose weights fold in the diffuse
reflection strength of each cell so that chrominance inference runs once
on a debiased trace. A biophysical skin/camera model and a synthetic video
generator back the closed-loop tests and diagnostic tables.
"""

__version__ = "0.1.0"
