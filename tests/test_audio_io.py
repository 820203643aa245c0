import struct

import numpy as np
import pytest

from diarkit.audio_io import (
    AudioBuffer,
    Turn,
    WavSource,
    emit_rttm,
    parse_rttm,
    read_wav,
    resample,
    write_wav,
)
from diarkit.errors import (
    CorruptHeader,
    EmptyBuffer,
    MalformedLine,
    NonNumericTime,
    NonPositiveDuration,
    UnsupportedFormat,
)

from conftest import fft_peak_hz, tone

NAN, INF = float("nan"), float("inf")


def random_buffer(n=4000, rate=16000, seed=1):
    rng = np.random.default_rng(seed)
    return AudioBuffer(rng.uniform(-1, 1, n).astype(np.float32), rate)


# ---- WAV round trips ----

def test_wav_16bit_round_trip_lossless(tmp_path):
    # start from values that are exact 16-bit codes so the trip is lossless
    rng = np.random.default_rng(7)
    codes = rng.integers(-32768, 32768, size=5000)
    buf = AudioBuffer(codes.astype(np.float32) / 32768.0, 16000)
    p = tmp_path / "a.wav"
    write_wav(p, buf, 16)
    back = read_wav(p)
    assert back.sample_rate_hz == 16000
    assert np.array_equal(back.samples, buf.samples)


def test_wav_16bit_quantization_error_bounded(tmp_path):
    buf = random_buffer(seed=3)
    p = tmp_path / "a.wav"
    write_wav(p, buf, 16)
    back = read_wav(p)
    assert np.max(np.abs(back.samples.astype(np.float64) - buf.samples.astype(np.float64))) <= 1.0 / 32768.0


def test_wav_f32_round_trip_bitwise(tmp_path):
    buf = random_buffer(seed=11)
    p = tmp_path / "a.wav"
    write_wav(p, buf, "f32")
    back = read_wav(p)
    assert back.samples.tobytes() == buf.samples.tobytes()
    assert back.sample_rate_hz == buf.sample_rate_hz


def test_wav_one_second_sample_count(tmp_path):
    buf = tone(440.0, 1.0, 16000)
    p = tmp_path / "one.wav"
    write_wav(p, buf, 16)
    assert len(read_wav(p)) == 16000


def test_wav_full_scale_clamps_to_32767(tmp_path):
    buf = AudioBuffer(np.array([1.0, -1.0], dtype=np.float32), 16000)
    p = tmp_path / "fs.wav"
    write_wav(p, buf, 16)
    raw = p.read_bytes()
    ints = struct.unpack("<2h", raw[44:48])
    assert ints == (32767, -32768)


# Three samples, 0.5, -0.25 and +1.0 (which PCM16 clamps to 32767), at
# 16 kHz: the whole file, header field by header field.
_GOLDEN_WAVS = {
    16: (
        b"RIFF" b"\x2a\x00\x00\x00" b"WAVE"
        b"fmt " b"\x10\x00\x00\x00"
        b"\x01\x00" b"\x01\x00" b"\x80\x3e\x00\x00" b"\x00\x7d\x00\x00" b"\x02\x00" b"\x10\x00"
        b"data" b"\x06\x00\x00\x00"
        b"\x00\x40" b"\x00\xe0" b"\xff\x7f"
    ),
    "f32": (
        b"RIFF" b"\x30\x00\x00\x00" b"WAVE"
        b"fmt " b"\x10\x00\x00\x00"
        b"\x03\x00" b"\x01\x00" b"\x80\x3e\x00\x00" b"\x00\xfa\x00\x00" b"\x04\x00" b"\x20\x00"
        b"data" b"\x0c\x00\x00\x00"
        b"\x00\x00\x00\x3f" b"\x00\x00\x80\xbe" b"\x00\x00\x80\x3f"
    ),
}


@pytest.mark.parametrize("bit_depth", [16, "f32"])
def test_wav_writer_bytes_equal_the_literal_riff_file(tmp_path, bit_depth):
    p = tmp_path / "three.wav"
    write_wav(p, AudioBuffer(np.array([0.5, -0.25, 1.0], dtype=np.float32), 16000), bit_depth)
    assert p.read_bytes() == _GOLDEN_WAVS[bit_depth]
    with WavSource(p) as src:
        assert (len(src), src.sample_rate_hz) == (3, 16000)
        back = src.read(0, 3)
    last = 32767 / 32768 if bit_depth == 16 else 1.0
    assert back.tolist() == [0.5, -0.25, np.float32(last)]


def test_wav_rejects_non_riff(tmp_path):
    p = tmp_path / "bad.wav"
    p.write_bytes(b"JUNKxxxxWAVE" + b"\0" * 64)
    with pytest.raises(CorruptHeader):
        read_wav(p)


def test_wav_rejects_stereo(tmp_path):
    # hand-build a 2-channel header
    payload = struct.pack("<4h", 0, 0, 0, 0)
    header = (
        b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 16000, 64000, 4, 16)
        + b"data" + struct.pack("<I", len(payload))
    )
    p = tmp_path / "st.wav"
    p.write_bytes(header + payload)
    with pytest.raises(UnsupportedFormat):
        read_wav(p)


def test_wav_rejects_unknown_codec(tmp_path):
    payload = b"\0" * 8
    header = (
        b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, 7, 1, 16000, 16000, 1, 8)  # mu-law
        + b"data" + struct.pack("<I", len(payload))
    )
    p = tmp_path / "mu.wav"
    p.write_bytes(header + payload)
    with pytest.raises(UnsupportedFormat):
        read_wav(p)


def test_wav_missing_file():
    with pytest.raises(FileNotFoundError):
        read_wav("/nonexistent/nothing.wav")


def test_write_empty_buffer_rejected(tmp_path):
    buf = AudioBuffer(np.zeros(0, dtype=np.float32), 16000)
    with pytest.raises(EmptyBuffer):
        write_wav(tmp_path / "e.wav", buf, 16)


def test_wav_truncated_data_chunk(tmp_path):
    payload = b"\0" * 100
    header = (
        b"RIFF" + struct.pack("<I", 36 + 200) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
        + b"data" + struct.pack("<I", 200)  # claims 200, provides 100
    )
    p = tmp_path / "tr.wav"
    p.write_bytes(header + payload)
    with pytest.raises(CorruptHeader):
        read_wav(p)


# ---- RTTM ----

def test_rttm_empty_text():
    assert parse_rttm("") == []
    assert parse_rttm("\n\n  \n") == []


def test_rttm_field_mapping():
    turns = parse_rttm("SPEAKER f1 1 5.00 2.50 <NA> <NA> spkA <NA> <NA>\n")
    assert turns == [Turn("f1", "spkA", 5.0, 2.5)]


def test_rttm_emit_layout():
    line = emit_rttm([Turn("f1", "spkA", 5.0, 2.5)])
    assert line == "SPEAKER f1 1 5.000 2.500 <NA> <NA> spkA <NA> <NA>\n"
    assert emit_rttm([]) == ""


def test_rttm_round_trip_exact():
    turns = [
        Turn("f1", "spkA", 0.0, 1.25),
        Turn("f1", "spkB", 1.5, 0.75),
        Turn("f1", "spkA", 3.0, 2.0),
    ]
    assert parse_rttm(emit_rttm(turns)) == turns


def test_rttm_random_round_trip_within_1ms():
    rng = np.random.default_rng(5)
    turns = [
        Turn("f", f"spk{int(rng.integers(4))}", float(rng.uniform(0, 100)), float(rng.uniform(0.01, 9)))
        for _ in range(100)
    ]
    back = parse_rttm(emit_rttm(turns))
    assert len(back) == 100
    for a, b in zip(turns, back):
        assert a.file_id == b.file_id and a.speaker_id == b.speaker_id
        assert abs(a.onset_s - b.onset_s) <= 0.0005 + 1e-12
        assert abs(a.duration_s - b.duration_s) <= 0.0005 + 1e-12


def test_rttm_rejects_bad_lines():
    with pytest.raises(MalformedLine) as ei:
        parse_rttm("LEXEME f1 1 0.0 1.0 <NA> <NA> x <NA> <NA>\n")
    assert ei.value.line_no == 1
    with pytest.raises(MalformedLine):
        parse_rttm("SPEAKER f1 1 0.0 1.0\n")
    with pytest.raises(NonNumericTime) as ei:
        parse_rttm("SPEAKER f1 1 zero 1.0 <NA> <NA> x <NA> <NA>\n")
    assert ei.value.line_no == 1
    with pytest.raises(NonPositiveDuration):
        parse_rttm("SPEAKER f1 1 0.0 0.0 <NA> <NA> x <NA> <NA>\n")


def test_rttm_line_numbers_count_from_one():
    text = "SPEAKER f1 1 0.0 1.0 <NA> <NA> x <NA> <NA>\n\nSPEAKER f1 1 bad 1.0 <NA> <NA> x <NA> <NA>\n"
    with pytest.raises(NonNumericTime) as ei:
        parse_rttm(text)
    assert ei.value.line_no == 3


# ---- resample ----

def test_resample_identity():
    buf = tone(440.0, 0.25)
    assert resample(buf, 16000) is buf


def test_resample_48k_to_16k_tone():
    buf = tone(440.0, 1.0, 48000)
    out = resample(buf, 16000)
    assert len(out) == 16000
    peak = fft_peak_hz(out)
    assert abs(peak - 440.0) / 440.0 < 0.005


def test_resample_downsample_length():
    buf = tone(440.0, 0.5, 16000)
    out = resample(buf, 8000)
    assert len(out) == 4000


def test_resample_upsample_preserves_tone():
    buf = tone(1000.0, 0.5, 16000)
    out = resample(buf, 48000)
    assert len(out) == 24000
    assert abs(fft_peak_hz(out) - 1000.0) / 1000.0 < 0.005


def test_resample_linearity():
    rng = np.random.default_rng(9)
    x = rng.uniform(-0.5, 0.5, 8000).astype(np.float32)
    a = np.float32(0.37)
    buf = AudioBuffer(x, 16000)
    buf_scaled = AudioBuffer(a * x, 16000)
    y1 = resample(buf_scaled, 11025).samples.astype(np.float64)
    y2 = a * resample(buf, 11025).samples.astype(np.float64)
    denom = np.linalg.norm(y2)
    assert np.linalg.norm(y1 - y2) / denom < 1e-6


def test_resample_rejects_bad_rate():
    with pytest.raises(ValueError):
        resample(tone(440, 0.1), 0)


# ---- type validation ----

def test_audio_buffer_validation():
    with pytest.raises(ValueError):
        AudioBuffer(np.array([np.nan], dtype=np.float32), 16000)
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros((2, 2), dtype=np.float32), 16000)
    with pytest.raises(ValueError):
        AudioBuffer(np.zeros(4, dtype=np.float32), 0)


def test_turn_validation():
    with pytest.raises(ValueError):
        Turn("f", "s", -0.1, 1.0)
    with pytest.raises(ValueError):
        Turn("f", "s", 0.0, 0.0)
    t = Turn("f", "s", 1.0, 2.0)
    assert t.offset_s == 3.0


@pytest.mark.parametrize(
    "onset, duration",
    [(NAN, 1.0), (INF, 1.0), (0.0, NAN), (0.0, INF), (INF, -INF), (1e308, 1e308)],
)
def test_turn_rejects_times_that_are_not_finite(onset, duration):
    with pytest.raises(ValueError, match="finite"):
        Turn("f", "s", onset, duration)


@pytest.mark.parametrize("onset, duration", [("nan", "1.0"), ("inf", "1.0"), ("0.0", "nan"),
                                             ("0.0", "inf"), ("1e308", "1e308")])
def test_rttm_rejects_times_that_are_not_finite(onset, duration):
    text = "SPEAKER f1 1 0.0 1.0 <NA> <NA> x <NA> <NA>\n"
    text += f"SPEAKER f1 1 {onset} {duration} <NA> <NA> x <NA> <NA>\n"
    with pytest.raises(NonNumericTime, match="line 2") as ei:
        parse_rttm(text)
    assert ei.value.line_no == 2


# ---- WAV parsing and block conversion ----


def _riff(*chunks):
    """A RIFF/WAVE file from (chunk id, body) pairs, pad bytes included."""
    body = b"".join(
        cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) & 1)
        for cid, data in chunks
    )
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def _fmt(code=1, bits=16, rate=16000):
    return b"fmt ", struct.pack("<HHIIHH", code, 1, rate, rate * bits // 8, bits // 8, bits)


def _pcm16_oracle(buf):
    """The whole-buffer conversion write_wav used before it worked in blocks."""
    ints = np.clip(np.rint(buf.samples.astype(np.float64) * 32768.0), -32768, 32767)
    return ints.astype("<i2").tobytes()


def test_wav_skips_an_odd_sized_chunk_and_its_pad_byte(tmp_path):
    codes = np.array([1, -2, 300, -32768, 32767], dtype="<i2")
    p = tmp_path / "odd.wav"
    p.write_bytes(_riff((b"LIST", b"abc"), _fmt(), (b"data", codes.tobytes())))
    assert np.array_equal(read_wav(p).samples, codes.astype(np.float32) / 32768.0)


def test_wav_reads_chunks_after_data(tmp_path):
    codes = np.arange(-50, 50, dtype="<i2")
    p = tmp_path / "tail.wav"
    p.write_bytes(_riff(_fmt(), (b"data", codes.tobytes()), (b"LIST", b"x" * 9)))
    assert np.array_equal(read_wav(p).samples, codes.astype(np.float32) / 32768.0)
    # fmt may also follow the data chunk.
    p.write_bytes(_riff((b"data", codes.tobytes()), _fmt()))
    assert np.array_equal(read_wav(p).samples, codes.astype(np.float32) / 32768.0)


def test_wav_reads_float32_data(tmp_path):
    values = np.random.default_rng(4).uniform(-1, 1, 1001).astype("<f4")
    p = tmp_path / "f.wav"
    p.write_bytes(_riff(_fmt(code=3, bits=32, rate=8000), (b"data", values.tobytes())))
    back = read_wav(p)
    assert back.sample_rate_hz == 8000
    assert back.samples.tobytes() == values.tobytes()


def test_wav_data_chunk_one_byte_short_is_corrupt(tmp_path):
    data = np.zeros(64, dtype="<i2").tobytes()
    raw = _riff(_fmt(), (b"data", data))
    p = tmp_path / "short.wav"
    p.write_bytes(raw[:-1])
    with pytest.raises(CorruptHeader):
        read_wav(p)


def test_wav_data_chunk_ending_inside_a_sample_is_corrupt(tmp_path):
    p = tmp_path / "odd.wav"
    p.write_bytes(_riff(_fmt(), (b"data", b"\1\0\2")))
    with pytest.raises(CorruptHeader):
        read_wav(p)
    p.write_bytes(_riff(_fmt(code=3, bits=32), (b"data", b"\0" * 6)))
    with pytest.raises(CorruptHeader):
        read_wav(p)


@pytest.mark.parametrize("bit_depth", [16, "f32"])
def test_wav_round_trip_over_several_blocks(tmp_path, bit_depth):
    # Lengths around the write block size, so a partial last block is written.
    from diarkit.audio_io import _WRITE_BLOCK

    for n in (_WRITE_BLOCK - 1, _WRITE_BLOCK, 3 * _WRITE_BLOCK + 17):
        buf = random_buffer(n=n, seed=n)
        p = tmp_path / f"b{n}.wav"
        write_wav(p, buf, bit_depth)
        raw = p.read_bytes()
        dtype = "<i2" if bit_depth == 16 else "<f4"
        want = np.frombuffer(raw[44:], dtype=dtype).astype(np.float32)
        if bit_depth == 16:
            want /= 32768.0
        assert read_wav(p).samples.tobytes() == want.tobytes()


def test_pcm16_bytes_equal_the_whole_buffer_conversion(tmp_path):
    from diarkit.audio_io import _WRITE_BLOCK

    rng = np.random.default_rng(9)
    edge = np.array([1.0, -1.0, 1.5, -2.0, 0.99999, -1.00001, 0.5 / 32768, -0.5 / 32768, 0.0])
    cases = [edge, rng.uniform(-1, 1, 4000), rng.uniform(-1.5, 1.5, 2 * _WRITE_BLOCK + 3)]
    for i, x in enumerate(cases):
        buf = AudioBuffer(x.astype(np.float32), 16000)
        p = tmp_path / f"c{i}.wav"
        write_wav(p, buf, 16)
        assert p.read_bytes()[44:] == _pcm16_oracle(buf), i


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 500, -1])
def test_audio_buffer_rejects_a_non_finite_sample_anywhere(bad, where):
    x = np.zeros(1001, dtype=np.float32)
    x[where] = bad
    with pytest.raises(ValueError):
        AudioBuffer(x, 16000)
